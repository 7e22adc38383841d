(** Deterministic pseudo-random numbers (splitmix64). All workload
    randomness flows through explicit states seeded by the experiment, so
    every run is reproducible bit for bit. *)

type t

val create : seed:int -> t

val int : t -> bound:int -> int
(** Uniform in [0, bound). @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float
(** Uniform in [0, 1). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates. *)

(**/**)

val split : t -> t
(** For tests: checks that split streams are independent.
    An independent stream derived from this one (advances this state). *)

val next : t -> int64
(** For tests: checks the raw generator. *)
