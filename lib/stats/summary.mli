(** Summary statistics over float samples. *)

type t = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
}

val of_list : float list -> t option
(** [None] on an empty list. *)

(**/**)

val percentile : float array -> float -> float
(** For tests: the interpolation rule behind the summary's quantiles.
    [percentile sorted q] with [q] in [0,1]; linear interpolation.
    @raise Invalid_argument on empty input or q outside [0,1]. *)
