(** The sink every checker writes into: accumulates {!Diagnostic.t}s,
    deduplicates repeats of the same finding (by {!Diagnostic.key}) and
    caps the total so a systematically-broken run cannot flood memory. *)

type t

val create : ?limit:int -> unit -> t
(** [limit] (default 200) bounds {e distinct} retained diagnostics;
    further ones are counted in {!dropped} but not stored. *)

val add : t -> Diagnostic.t -> unit

val diagnostics : t -> Diagnostic.t list
(** In insertion order. *)

val count : t -> int
(** Distinct diagnostics retained. *)

val dropped : t -> int
(** Diagnostics discarded after [limit] was reached. *)

val is_clean : t -> bool
(** No diagnostics at all (dropped included). *)

val pp : Format.formatter -> t -> unit
(** One line per diagnostic plus a summary tail. *)
