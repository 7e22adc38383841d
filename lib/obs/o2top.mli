(** Plain-text rendering of a {!Metrics} registry — the [top]-style
    readout printed by [o2sim --metrics] and the examples.

    Three sections (each omitted when empty): latency histograms with
    count/mean/p50/p90/p99/p999/max columns, counters, and — unless
    [gauges:false] — the per-core gauges from the last monitor period.
    With [?capture], the histogram header names the capture's time unit
    ({!Capture.time_unit}: simulated cycles or wall-clock ns, so a
    reader can never mistake one domain of time for the other) and a
    footer accounts for its ring bounds: records retained and dropped,
    spans complete and incomplete, the span sampling. Without one the
    header says cycles. Output is deterministic: rows are sorted by
    metric name. *)

val render :
  ?gauges:bool -> ?capture:O2_runtime.Telemetry.t -> Metrics.t -> string

val domain_table : O2_runtime.Telemetry.t -> string
(** A native capture's per-domain breakdown (one row per worker plus
    the coordinator): ops submitted, steals, ships, parks, inbox
    batching, and each sink's ring accounting — retained events and
    drops, so lossy captures are visible right in the readout. *)
