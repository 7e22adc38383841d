(** A registry of named counters, gauges and latency histograms.

    Names are free-form strings; by convention hierarchical with ["/"]
    (["op/home_hit"], ["rebalance/moves"], ["core00/idle_frac"]). Metrics
    are created on first use, so producers never pre-declare. Listings are
    sorted by name, making every rendering deterministic.

    Registries are plain data; histograms merge bucket-wise
    ({!O2_runtime.Hist.merge_into}). *)

type t

val create : unit -> t

(** {2 Counters} *)

val incr : ?by:int -> t -> string -> unit

(** {2 Gauges} *)

val set_gauge : t -> string -> float -> unit

(** {2 Histograms} *)

val hist : t -> string -> O2_runtime.Hist.t
(** Find-or-create. *)

val observe : t -> string -> int -> unit
(** [observe t name v] = [Hist.add (hist t name) v]. *)

(** {2 Listing and merging} *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val gauges : t -> (string * float) list
val hists : t -> (string * O2_runtime.Hist.t) list

(**/**)

val counter_value : t -> string -> int
(** For tests: reads one counter back.
    0 for a counter never incremented. *)
