(** CoreTime's object table (paper Section 4, "Interface"): registered
    objects keyed by the address that identifies them, their home-core
    assignment, and per-core cache-budget accounting.

    [ct_start(o)] resolves its address argument through {!find}; promotion
    and rebalancing mutate assignments through {!assign} / {!unassign},
    which maintain how many bytes are packed into each core's budget.

    The table also maintains incremental indexes so the runtime monitor's
    cost tracks the {e active} set rather than the table size: per-core
    intrusive assignment lists ({!iter_assigned} is O(assigned-on-core)
    and allocation-free), and an active-set list of objects operated on
    this period ({!note_op} appends on the first op, {!drain_active}
    resets the period counters of exactly those objects). *)

type obj = {
  base : int;  (** Identifying address (e.g. a directory's first cluster). *)
  size : int;  (** Bytes, as supplied at registration. *)
  name : string;
  seq : int;  (** Registration sequence number (0-based, dense). *)
  mutable home : int option;  (** Assigned core, when in the table. *)
  mutable ewma_misses : float;  (** Per-op cache-miss EWMA. *)
  mutable ops_total : int;
  mutable ops_period : int;  (** Ops since the last monitor period. *)
  mutable idle_periods : int;  (** Consecutive periods with zero ops. *)
  mutable writes : int;  (** Write operations observed on it. *)
  mutable replicated : bool;
      (** The replication policy decided the hardware should manage this
          hot read-only object; promotion leaves it alone until it is
          written. *)
  mutable assigns : int;
      (** Lifetime count of {!assign} calls — how often the scheduler has
          (re)homed this object, surfaced in decision provenance. *)
  mutable owner_pid : int;  (** Owning process (fairness accounting). *)
  mutable link_prev : obj option;
      (** Intrusive per-core assignment list; maintained by
          {!assign}/{!unassign}, never write these directly. *)
  mutable link_next : obj option;
  mutable active_next : obj option;
      (** Intrusive active-set list; maintained by
          {!note_op}/{!drain_active}, never write these directly. *)
  mutable in_active : bool;
}

type t

val create : cores:int -> budget_per_core:int -> t

val register :
  t -> ?pid:int -> base:int -> size:int -> name:string -> unit -> obj
(** @raise Invalid_argument on duplicate base or non-positive size. *)

val find : t -> int -> obj option
(** Lookup by identifying address (exact base match, O(1) — the table
    lookup [ct_start] performs). *)

val iter : t -> (obj -> unit) -> unit
(** Every registered object, in registration order, without allocating. *)

val size : t -> int

val assign : t -> obj -> int -> unit
(** Put [obj] in the table with the given home core (moving it if it was
    assigned elsewhere); updates budget accounting and the per-core
    assignment index. *)

val unassign : t -> obj -> unit

val budget : t -> int
val cores : t -> int
val used : t -> int -> int
(** Bytes currently assigned to a core. *)

val total_used : t -> int

val iter_assigned : t -> core:int -> (obj -> unit) -> unit
(** The objects homed on [core], O(assigned-on-core), zero allocation.
    The callback may {!unassign} or re-{!assign} the object it was handed
    (the successor is read first); removing {e other} objects of the same
    core's list mid-iteration is not supported. *)

val assigned : t -> core:int -> obj list
(** Objects homed on [core], in registration order. Allocates; prefer
    {!iter_assigned} anywhere periodic. *)

val assigned_count : t -> int
(** Objects currently in the table (O(1)). *)

val note_op : t -> obj -> unit
(** Record one completed operation on [obj]: bumps [ops_total] and
    [ops_period], and appends [obj] to the active-set list on the first
    op of the period. All per-period op accounting must go through here —
    writing [ops_period] directly would hide the object from
    {!iter_active} and {!drain_active}. *)

val iter_active : t -> (obj -> unit) -> unit
(** Objects operated on since the last {!drain_active} (newest first),
    zero allocation. *)

val active_count : t -> int

val drain_active : t -> unit
(** End the monitor period: reset [ops_period] on exactly the objects in
    the active set and empty it. O(active), allocation-free. *)

val fits : t -> core:int -> obj -> bool

(** [can_place t o] is whether any core currently has budget for [o]. *)
val can_place : t -> obj -> bool

val check_accounting : t -> (unit, string) result
(** Budget-accounting invariant for the property tests and the o2check
    audits, extended to the incremental indexes: per-core byte totals
    match the [home] fields, every per-core list holds exactly the
    objects homed there with consistent back-links, and the active list
    covers exactly the objects with pending period ops. *)

(**/**)

val fold : t -> ('a -> obj -> 'a) -> 'a -> 'a
(** For tests: the model-based table tests fold over every object.
    [fold t f init]: {!iter} with an accumulator, registration order. *)

val occupancy : t -> float
(** For tests: checks the budget accounting as one ratio.
    [total_used / (budget * cores)]: how full the table's cache budget is. *)

val free_space : t -> int -> int
(** For tests: checks per-core free space against the model. *)

val fold_assigned : t -> core:int -> ('a -> obj -> 'a) -> 'a -> 'a
(** For tests: cross-checks the per-core assignment index. *)
