(** The native execution pool: one OCaml 5 domain per "core".

    Each worker domain owns a {!Deque} (its run queue, stolen from by
    idle peers) and an {!Inbox} (cross-domain delivery: client spawns
    from the coordinator, shipped operations from other workers). The
    worker loop drains the inbox, pops its own deque, then sweeps peers'
    deques as a thief, and parks on a condition variable when the whole
    pool looks quiet — an epoch ticket read before the final scan makes
    the park race-free against concurrent posts.

    Tasks run under an {!Effect.Deep} handler that interprets the
    shipping subset of {!O2_runtime.Api}: [Ship_to]/[Migrate_to] capture
    the client's continuation and post it to the target worker's inbox
    (this is the paper's operation shipping — the op descriptor crosses,
    the data stays), and [Yield] re-queues the continuation locally.
    Continuations are resumed on whichever domain receives them;
    {!current_domain} always names the executing worker because the
    handler consults the executing thread's worker word, never a
    captured id.

    Simulation sweeps run their independent cells on it as well, through
    {!map}.

    The pool is the only module in the tree touching raw [Domain] /
    [Mutex] / [Condition]; it is the one file allowlisted in
    o2staticcheck's raw-primitive rule. *)

type t

val create : ?telemetry:O2_runtime.Telemetry.t -> domains:int -> unit -> t
(** Spawn [domains] worker domains, idle until work arrives. The pool
    takes the count literally — oversubscribing the host is legal (the
    correctness tests do it); CLI entry points clamp first via
    {!clamped}.

    [telemetry] (default {!O2_runtime.Telemetry.off}) attaches the
    wall-clock flight recorder: each worker stamps steal / park / wake /
    inbox-batch events and counters into its own single-writer sink,
    and spawns are stamped on the caller's sink. With the default the
    instrumented paths are a cached-bool branch — pinned
    allocation-free by suite_hotpath and the o2staticcheck manifest.
    @raise Invalid_argument if [domains < 1] or [domains >= 65536], or
    if [telemetry] was created for a different domain count. *)

val domains : t -> int

val current_domain : t -> int
(** The worker index executing the caller, or [-1] off-pool (the
    coordinator, or a worker of another pool). Valid inside client
    bodies wherever they ran. One thread-local load, an xor and a
    compare. *)

val spawn : t -> core:int -> name:string -> (unit -> unit) -> unit
(** Queue a client body on worker [core]'s inbox (it may later be stolen
    by an idle peer). Callable from the coordinator or from a worker.
    @raise Invalid_argument if [core] is out of range. *)

val drain : t -> unit
(** Block the coordinator until every spawned client has finished. If
    any client raised, the first exception recorded is re-raised here
    (after quiescence). Workers stay alive, parked, for the next batch. *)

val shutdown : t -> unit
(** Stop and join every worker. The pool must be quiescent ({!drain}
    returned). Idempotent. *)

(** {1 Grace period}

    {!Native_backend}'s first-write protocol: a generation word and one
    ack word per worker, each padded to two cache lines (DESIGN.md,
    "Home-isolated layout"). *)

val pass : t -> int -> unit
(** [pass t me], worker [me]'s quiescent point: if the generation moved
    since [me]'s last ack, store it in [me]'s ack word (a release). The
    caller asserts that no local read it began is still running. The
    worker loop passes on every iteration, also after a park. *)

val await_grace : t -> int -> unit
(** [await_grace t me], a first writer's wait on worker [me]: bump the
    generation (releasing the caller's writes), wake parked workers,
    and spin, passing for [me], until every other worker has acked the
    new generation. It returns once each of them starts an op, returns
    to its loop or parks, so a client spinning between ops holds it up.
    After it, no local read begun before the bump is running. *)

(** {1 Batches of independent work} *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: the detected core count. *)

val clamped : what:string -> int -> int
(** [clamped ~what n] is [min n (default_jobs ())], warning on stderr
    (once per process per [what] label) when it actually clamps.
    Oversubscribing real domains never speeds anything up, so the CLI
    entry points ([o2sim run --jobs] / [--domains], the bench harness's
    [--jobs]) clamp here once; everything below them takes counts
    literally. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element of [xs] on
    [min jobs (List.length xs)] workers, the caller and a fresh pool of
    one domain fewer, and returns the results {e in input order}. Each
    worker claims the next unclaimed element until none is left, so
    elements start in input order. The pool is shut down before [map]
    returns, normally or not. [jobs <= 1] or a list of at most one
    element is [List.map f xs] on the caller, with no domains.

    If applications raise, every element still runs to completion and
    the exception of the smallest input index is re-raised in the
    caller, as a sequential [List.map] would raise it.

    [f] runs on the caller or as a client body under the pool's effect
    handler, so it must handle its own effects. A simulated cell runs
    its own {!O2_runtime.Engine}, whose handler catches every
    {!O2_runtime.Api} effect the cell performs, so none reaches the
    pool's. *)

val tasks_executed : t -> int
(** Tasks run across all workers (client bodies plus resumed shipped /
    yielded continuations) — telemetry; stable only at quiescence. *)

val steals : t -> int
(** Successful deque steals across all workers; stable at quiescence. *)

val telemetry : t -> O2_runtime.Telemetry.t
(** The telemetry handed to {!create} ([Telemetry.off] if none). *)
