(** CoreTime: the O2 scheduler, as a runtime library (paper Section 4).

    Application threads bracket each operation with {!ct_start} /
    {!ct_end}, passing the address that identifies the object being
    operated on (paper Figure 3). [ct_start] looks the object up in the
    object table; if it is assigned to another core the thread migrates
    there, bringing the operation to the object's cache. Between the
    annotations CoreTime counts cache misses (from the simulated hardware
    event counters) and attributes them to the object; objects that stay
    expensive to fetch are promoted into the table by greedy first-fit
    cache packing. A periodic monitor (the {!Rebalancer}) demotes stale
    objects and moves objects off saturated cores.

    With [Policy.baseline] the annotations cost nothing and never migrate:
    that is the paper's "without CoreTime" configuration — identical
    workload code, traditional one-thread-per-core scheduling. *)

(** The component modules, re-exported as part of the public API. *)

module Policy = Policy
module Object_table = Object_table
module Cache_packing = Cache_packing
module Clustering = Clustering
module Ownership = Ownership
module Rebalancer = Rebalancer

type t

type stats = {
  mutable promotions : int;
  mutable replications : int;
      (** Promotions skipped by the read-only replication policy. *)
  mutable op_migrations : int;
      (** ct_start migrations to an object's home core. *)
  mutable ops : int;  (** Annotated operations completed. *)
}

val create :
  ?policy:Policy.t -> O2_runtime.Engine.t -> unit -> t
(** [policy] defaults to {!Policy.default}. Installs the periodic monitor
    on the engine when rebalancing is enabled.
    @raise Invalid_argument if the policy fails {!Policy.validate}. *)

val engine : t -> O2_runtime.Engine.t
val policy : t -> Policy.t
val table : t -> Object_table.t
val clustering : t -> Clustering.t
val ownership : t -> Ownership.t
val rebalancer : t -> Rebalancer.t
val stats : t -> stats

val register :
  t -> ?pid:int -> base:int -> size:int -> name:string -> unit ->
  Object_table.obj
(** Tell CoreTime about an object (developers annotate; sizes come from
    the allocator). Unregistered addresses passed to {!ct_start} execute
    locally, untouched — the hardware manages them. *)

val ct_start : t -> ?write:bool -> int -> unit
(** Begin an operation on the object identified by this address. Must be
    called from inside a simulated thread; regions may nest (nesting
    feeds the clustering heuristic). [write] marks the operation as
    mutating for the read-only replication policy. *)

val ct_end : t -> unit
(** End the innermost operation: attribute the cache misses observed
    since its [ct_start] to the object, update its EWMA, charge the owner
    process, and migrate back if the operation migrated.
    @raise Invalid_argument if no operation is open for this thread. *)

val with_op : t -> ?write:bool -> int -> (unit -> 'a) -> 'a
(** [with_op t addr f] = [ct_start]; [f ()]; [ct_end] — exceptions from
    [f] are not handled (simulation code is not expected to raise). *)

val pp_assignments : Format.formatter -> t -> unit
