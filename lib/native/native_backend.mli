(** The native backend: the O2 object/operation model on real domains.

    Implements {!O2_runtime.Backend_intf.S} over a {!Native_pool}. An
    object earns a {e home domain} with its first write. Until then it
    is unhomed, and a read-only op on it ([write] absent or [false])
    runs on the submitting domain, like a read-only object the
    simulator leaves to hardware replication. The first
    [~write:true] op ships to the object's nominal home, waits until no
    other domain is inside a local read of it, and homes it there. From
    then on an op submitted anywhere else is shipped — [Api.ship_to]
    captures the client's continuation and posts it to the home's inbox
    — so a write only ever runs on the home domain, alone. That
    single-writer discipline is the backend's whole data-race story: no
    per-object locks, and ops on a homed object execute in inbox FIFO
    order. Op bodies must be effect-free (no nested [with_op], no
    yield): a local read must finish on its own domain.

    The monitor is a quiesce-point rebalancer: {!rebalance} may only run
    between {!run} batches (inflight = 0), when no client is executing,
    so re-homing never races an op in flight and per-object op order is
    preserved across the move. It re-homes each written object to its
    dominant submitting domain since the last call and then spills load
    off overloaded homes — the wall-clock analogue of the simulator's
    periodic {!Coretime.Rebalancer}. Unhomed objects are neither counted
    nor moved. *)

type t

val create : ?telemetry:O2_runtime.Telemetry.t -> domains:int -> unit -> t
(** Spawns the worker pool (see {!Native_pool.create} — the count is
    taken literally; clamp at the CLI with
    {!O2_runtime.Domain_pool.clamped}). Freshly registered objects are
    unhomed; their nominal homes are assigned round-robin across domains,
    and the first write to an object homes it on its nominal home until
    the monitor moves it.

    [telemetry] (default {!O2_runtime.Telemetry.off}) additionally
    instruments the op path: every [with_op] stamps submit / ship /
    start / end span events (1-in-[sample]) and feeds the wall-clock
    latency accumulators, carrying its timestamps in locals across the
    ship so submit-to-end covers the whole handoff. {!rebalance} and
    {!run} stamp rebalance / quiesce instants on the coordinator
    sink. *)

val shutdown : t -> unit
(** Join the pool. Required before discarding the backend; idempotent. *)

val rebalance : t -> unit
(** One monitor step at a quiesce point. Re-homes written objects to
    their dominant submitter, spills overloaded homes to the least
    loaded domain, snapshots the submit counters for the next period,
    and emits [Probe.Rebalanced] when the probe is active. Objects never
    written are skipped, so {!migrations} counts only real re-homes.
    @raise Invalid_argument if called from a pool worker. *)

val pool : t -> Native_pool.t
val home : t -> int -> int
(** The object's current home domain, or for an object never written
    the nominal home its first write will take.
    @raise Invalid_argument for a handle outside [[0, objects t)]. *)

val guards_clear : t -> bool
(** Every guard word of every domain's counter row is still 0
    ({!Pad_row.guards_clear}); a test hook for the row offsets. Read at
    quiescence only. *)

val telemetry : t -> O2_runtime.Telemetry.t
(** The telemetry handed to {!create} ([Telemetry.off] if none). *)

(** The {!O2_runtime.Backend_intf.S} surface. *)

val name : t -> string
val cores : t -> int
val probe : t -> O2_runtime.Probe.t
val register : t -> size:int -> name:string -> int
val objects : t -> int
val spawn : t -> core:int -> name:string -> (unit -> unit) -> unit
val with_op : t -> ?write:bool -> int -> (unit -> 'a) -> 'a
val touch : t -> write:bool -> obj:int -> off:int -> len:int -> unit
val compute : t -> int -> unit
val run : t -> unit
val ops_completed : t -> int
val object_ops : t -> int -> int
(** Ops run on the object so far, summed over domains; at quiescence.
    @raise Invalid_argument for a handle outside [[0, objects t)]. *)

val ships : t -> int * int
val migrations : t -> int
