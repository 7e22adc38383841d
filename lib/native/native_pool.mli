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
    handler consults domain-local state, never a captured id.

    The pool is the only [lib/native] module touching raw [Domain] /
    [Mutex] / [Condition]; it is allowlisted in o2staticcheck's
    raw-primitive rule the same way [Domain_pool] is. *)

type t

val create : ?telemetry:O2_runtime.Telemetry.t -> domains:int -> unit -> t
(** Spawn [domains] worker domains, idle until work arrives. The pool
    takes the count literally — oversubscribing the host is legal (the
    correctness tests do it); CLI entry points clamp first via
    {!O2_runtime.Domain_pool.clamped}.

    [telemetry] (default {!O2_runtime.Telemetry.off}) attaches the
    wall-clock flight recorder: each worker stamps steal / park / wake /
    inbox-batch events and counters into its own single-writer sink,
    and spawns are stamped on the caller's sink. With the default the
    instrumented paths are a cached-bool branch — pinned
    allocation-free by suite_hotpath and the o2staticcheck manifest.
    @raise Invalid_argument if [domains < 1], or if [telemetry] was
    created for a different domain count. *)

val domains : t -> int

val current_domain : t -> int
(** The worker index executing the caller, or [-1] off-pool (the
    coordinator). Valid inside client bodies wherever they ran. *)

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

(** {1 Reading slots}

    One atomic int per domain, padded to two cache lines so that
    domains publishing into their own slots never share a line (DESIGN.md,
    "Home-isolated layout"). The slots carry {!Native_backend}'s
    first-write handshake; they live here because this module is the
    raw-primitive shim. The set is indexed here too, where its element
    type is known, so a slot lookup is a plain load. *)

type slots

val make_slots : int -> int -> slots
(** [make_slots n v]: [n] slots, each holding [v]. *)

val publish : slots -> int -> int -> unit
(** [publish s d v] stores [v] in slot [d] with a sequentially
    consistent store ([Atomic.exchange], result dropped). *)

val await_vacant : slots -> int -> unit
(** [await_vacant s v] spins ([Domain.cpu_relax]) until no slot holds
    [v], visiting each slot once in order. Every poll is a
    read-modify-write, so a domain that publishes into a slot after its
    poll observes everything the caller wrote before calling. *)

val tasks_executed : t -> int
(** Tasks run across all workers (client bodies plus resumed shipped /
    yielded continuations) — telemetry; stable only at quiescence. *)

val steals : t -> int
(** Successful deque steals across all workers; stable at quiescence. *)

val telemetry : t -> O2_runtime.Telemetry.t
(** The telemetry handed to {!create} ([Telemetry.off] if none). *)
