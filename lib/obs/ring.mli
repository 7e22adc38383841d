(** A bounded ring buffer that keeps the {e most recent} [capacity]
    elements — flight-recorder semantics. Older elements are overwritten
    silently at push time but accounted for: {!dropped} reports how many
    were lost to the bound, so consumers can say "showing the last N of M
    events" honestly.

    A zero-capacity ring retains nothing (every push is dropped). The
    cache observatory bounds its occupancy timeline and its decision
    provenance with it. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument on a negative capacity. *)

val push : 'a t -> 'a -> unit

val length : 'a t -> int
(** Elements currently retained. *)

val total : 'a t -> int
(** Elements ever pushed. *)

val dropped : 'a t -> int
(** [total - length]: elements overwritten (or never stored). *)

val iter : 'a t -> ('a -> unit) -> unit
(** Oldest retained element first. *)

val to_list : 'a t -> 'a list
(** Oldest retained element first. *)

(**/**)

val clear : 'a t -> unit
(** For tests: checks that clearing resets the drop accounting.
    Also resets the {!total} / {!dropped} accounting. *)
