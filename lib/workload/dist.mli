(** Discrete popularity distributions over [0, n). *)

type t

val zipf : n:int -> s:float -> t
(** Zipf with exponent [s] over ranks 1..n (rank 0 is most popular).
    @raise Invalid_argument if [n <= 0] or [s < 0]. *)

val sample : t -> Rng.t -> int

(**/**)

val pmf : t -> int -> float
(** For tests: checks the Zipf distribution's shape.
    Probability of value [i]. *)
