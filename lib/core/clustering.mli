(** Object clustering (paper Section 6.2): when one operation uses two
    objects together, placing both in the same cache avoids a second
    migration.

    Co-accesses are observed from nested annotation regions
    ([ct_start a; ... ct_start b; ... ct_end; ct_end]); once a pair has
    been seen often enough, promotion prefers the partner's home core. *)

type t

val create : unit -> t

val note_coaccess : t -> int -> int -> unit
(** Record that the objects identified by these two base addresses were
    used by one operation (order-insensitive). *)

val preferred_core :
  t -> Object_table.t -> min_coaccess:int -> Object_table.obj -> int option
(** The home core of the most frequently co-accessed partner that is
    assigned and has room for this object, if any pair count reaches
    [min_coaccess]. *)

val pairs_tracked : t -> int

(**/**)

val coaccess_count : t -> int -> int -> int
(** For tests: checks the co-access counts the clustering is built from. *)

val partners : t -> int -> (int * int) list
(** For tests: checks the partner ranking behind {!preferred_core}.
    [(partner_base, count)] pairs for an object, most frequent first. *)
