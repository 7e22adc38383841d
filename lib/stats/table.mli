(** Fixed-width ASCII tables for the benchmark harness output. *)

type align = Left | Right

type t

val create : columns:(string * align) list -> t
val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the header. *)

val render : t -> string

(**/**)

val rows : t -> int
(** For tests: counts rows without parsing the rendering. *)
