(** Log₂-bucketed histograms over non-negative integer samples (cycle
    latencies, counts per period).

    Adding a sample is O(1) and allocation-free; the 63 power-of-two
    buckets cover every non-negative OCaml int. Exact minimum, maximum,
    count and sum ride along, so percentile readouts are clamped to the
    observed range and [q=0] / [q=1] are exact. Histograms from different
    domains or measurement cells merge by bucket-wise addition. *)

type t

val create : unit -> t

val of_raw :
  counts:int array -> total:int -> sum:int -> min_v:int -> max_v:int -> t
(** Import an externally maintained accumulator with the same 63-bucket
    log₂ layout (bucket 0 holds 0, bucket [k ≥ 1] holds [2^(k-1), 2^k))
    — e.g. [O2_runtime.Telemetry]'s per-sink latency accumulators,
    which cannot depend on this library. [counts] is copied; [min_v] is
    [max_int] when empty, as in a fresh {!create}. *)

val add : t -> int -> unit
(** Record one sample; negative values are clamped to 0. *)

val count : t -> int
val sum : t -> int
val mean : t -> float

val min_value : t -> int
(** 0 when empty. *)

val max_value : t -> int

val merge_into : into:t -> t -> unit
(** Bucket-wise add [t] into [into] (for combining per-domain or per-cell
    histograms). *)

val percentile : t -> float -> float
(** [percentile t q] with [q] in [0,1]: nearest-rank bucket lookup with
    linear interpolation across the bucket's value range (clamped to the
    observed min/max). Returns [0.] on an empty histogram.
    @raise Invalid_argument if [q] is outside [0,1]. *)

val p50 : t -> float
val p90 : t -> float
val p99 : t -> float
val p999 : t -> float

(**/**)

val bucket_of : int -> int
(** Exposed for tests: index of the bucket holding a value. *)
