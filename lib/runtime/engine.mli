(** The per-core cooperative scheduler and discrete-event simulation loop.

    Each simulated core has a virtual cycle clock and a run queue; the
    engine always advances the earliest pending event (ties in scheduling
    order), so execution is deterministic and conservatively ordered — no
    core ever observes memory "from the future" of another core.

    Threads execute OCaml code directly; when they perform an {!Api}
    effect the engine computes its cost on the {!O2_simcore.Machine},
    charges the core's clock and counters, and resumes the thread when the
    virtual time has passed. Cooperative semantics match CoreTime's: a
    core runs one operation at a time and switches only at migration,
    yield, lock or termination points; spinning on a lock occupies the
    core. *)

type t

exception Not_lock_owner of string
(** Raised out of {!run} when a thread releases a spin lock it does not
    hold — a bug in the simulated program. *)

val create : O2_simcore.Machine.t -> t

val machine : t -> O2_simcore.Machine.t
val cores : t -> int

val probe : t -> Probe.t
(** The engine's observation hooks: every memory access, lock transfer and
    thread lifecycle event flows through this probe (see {!Probe}). The
    analysis layer in [lib/analysis] subscribes here; with no subscribers
    the hooks cost nothing. *)

val spawn : t -> core:int -> name:string -> (unit -> unit) -> Thread.t
(** Create a thread on [core]'s run queue, runnable at the current virtual
    time. The body runs when the engine next dispatches that core.
    @raise Invalid_argument if [core] is out of range. *)

val every : t -> period:int -> ?start:int -> (now:int -> unit) -> unit
(** Recurring {!at}. [start] defaults to [period] from now. Recurring
    callbacks are daemons: they run as long as the simulation has other
    work, but never keep it alive on their own. *)

val run : ?until:int -> ?stop_when:(unit -> bool) -> t -> unit
(** Process events until only daemon events remain, the next event is past
    [until] (virtual cycles), or [stop_when ()] becomes true (checked after
    every event). The engine can be [run] again afterwards to continue. *)

val now : t -> int
(** Virtual time of the most recently processed event. *)

val events_processed : t -> int

val finalize_idle : t -> unit
(** Charge idle cycles up to {!now} for cores currently idle; call before
    reading idle-cycle counters at the end of a measurement interval. *)

(**/**)

val at : t -> time:int -> (now:int -> unit) -> unit
(** For tests: one-shot control callbacks; {!every} is the production form.
    Run a zero-cost control callback at a virtual time (used by monitors
    and workload phase changes).
    @raise Invalid_argument if [time] is in the past. *)

val core_clock : t -> int -> int
(** For tests: checks that an op charged its core. *)

val live_threads : t -> int
(** For tests: checks that a run finished or paused.
    Threads spawned and not yet finished. *)
