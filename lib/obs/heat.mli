(** The cache observatory's heat tracker: what each object costs the chip.

    One machine observer plus one probe listener accumulate, per
    registered object (dense {!O2_simcore.Memsys.obj_id}): operations
    started on it, where its lines were served from (L1 / L2 / local L3 /
    remote cache / DRAM), fill and eviction churn, and current resident
    lines. The ranking that {!render} prints orders by off-core traffic —
    remote plus DRAM line sources, the costs the paper's scheduler exists
    to avoid — with operation count and object id as deterministic
    tie-breaks.

    Like the rest of the observatory this costs nothing detached; attached,
    each observed line access does an allocation-free address-to-object
    binary search. *)

type t

val attach : O2_runtime.Engine.t -> t
(** Subscribe to the engine's machine observer and probe for the engine's
    lifetime. *)

type row = {
  obj : int;
  name : string;
  ops : int;  (** ct operations started on the object. *)
  l1 : int;  (** Lines served from the accessing core's L1... *)
  l2 : int;
  l3 : int;
  remote : int;  (** ...a remote cache over the interconnect... *)
  dram : int;  (** ...or DRAM. *)
  fills : int;
  evictions : int;  (** Lines lost to capacity or coherence. *)
  resident : int;  (** Lines currently in some cache. *)
}

val render : ?top:int -> t -> string
(** The top-[top] (default 10) heat table. *)

(**/**)

val top_k : t -> int -> row list
(** For tests: checks the ranking {!render} prints.
    Hottest [k] objects: off-core traffic desc, then ops desc, then object
    id asc. Objects with no recorded activity are omitted. *)

val tracked : t -> row list
(** For tests: checks that per-object ops add up to the completed ops.
    Every object with recorded activity, in object-id order. *)

val unattributed : t -> int
(** For tests: checks that quickstart leaves nothing unattributed.
    Observed line accesses that fell outside every registered object. *)
