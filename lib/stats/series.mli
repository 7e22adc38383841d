(** A named (x, y) series — one curve of a figure. *)

type point = { x : float; y : float }
type t = { label : string; points : point list }

val make : label:string -> (float * float) list -> t

val ratio : num:t -> den:t -> t
(** Pointwise [num/den] at shared x values (label "num/den"); skips points
    where the denominator is 0. *)

val crossover : a:t -> b:t -> float option
(** Smallest shared x at which the sign of (a - b) differs from the
    previous shared x — where the curves cross. *)

(**/**)

val xs : t -> float list
(** For tests: checks that {!make} sorts by x. *)

val y_at : t -> float -> float option
(** For tests: reads one point back.
    Exact-x lookup. *)
