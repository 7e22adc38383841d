(** A registry of named counters, gauges and latency histograms.

    Names are free-form strings; by convention hierarchical with ["/"]
    (["op/home_hit"], ["rebalance/moves"], ["core00/idle_frac"]). Metrics
    are created on first use, so producers never pre-declare. Listings are
    sorted by name, making every rendering deterministic.

    Registries are plain data and merge with {!merge_into} — per-domain or
    per-cell registries combine into one (counters add, histograms merge
    bucket-wise, gauges keep the merged-in sample). *)

type t

val create : unit -> t

(** {2 Counters} *)

val incr : ?by:int -> t -> string -> unit
val counter_value : t -> string -> int
(** 0 for a counter never incremented. *)

(** {2 Gauges} *)

val set_gauge : t -> string -> float -> unit
val gauge_value : t -> string -> float option

(** {2 Histograms} *)

val hist : t -> string -> Hist.t
(** Find-or-create. *)

val observe : t -> string -> int -> unit
(** [observe t name v] = [Hist.add (hist t name) v]. *)

(** {2 Listing and merging} *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val gauges : t -> (string * float) list
val hists : t -> (string * Hist.t) list

val merge_into : into:t -> t -> unit
