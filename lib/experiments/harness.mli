(** Shared machinery for the paper's experiments: build a machine, run the
    directory workload under a policy, and report steady-state throughput
    in thousands of name resolutions per second (the y-axis of Figure 4). *)

type oscillation = { period : int; divisor : int }
(** Flip the active directory set between full and [full / divisor] every
    [period] cycles (Figure 4(b)). *)

type obs = {
  metrics : bool;  (** Collect/print latency histograms and counters. *)
  trace : string option;  (** Write a Perfetto trace_event JSON here. *)
  trace_sample : int;  (** Keep the trace records of 1-in-N ops. *)
  occupancy : bool;  (** Attach the cache observatory's occupancy tracker. *)
  occupancy_interval : int;  (** Cycles between occupancy timeline samples. *)
  heat : bool;  (** Attach per-object heat attribution. *)
  heat_top : int;  (** Rows in the printed heat table. *)
  explain : bool;  (** Record and print scheduler decision provenance. *)
}
(** Observability options threaded from the [o2sim] command line into the
    experiments ({!Registry.run_ids}). *)

val no_obs : obs
(** Everything off: no recorder is attached, probes stay inactive.
    Intervals and counts default to usable values (200_000-cycle
    occupancy sampling, top-10 heat) so flags can be flipped on
    individually. *)

val validate_obs : obs -> (unit, string) result
(** Reject nonsensical knob values with a CLI-ready message:
    [trace_sample <= 0], [occupancy_interval <= 0], [heat_top <= 0]. *)

type point = {
  data_kb : int;  (** Total directory-content size (x-axis). *)
  kres_per_sec : float;  (** Steady-state resolutions/s, in thousands. *)
  ops : int;  (** Resolutions completed in the measured window. *)
  promotions : int;
  op_migrations : int;
  rebalancer_moves : int;
  rebalancer_demotions : int;
  dram_loads : int;  (** During the measured window. *)
  remote_hits : int;
  spin_cycles : int;
  avg_busy : float;  (** Mean per-core busy(+spin) ratio in the window. *)
  metrics : O2_obs.Metrics.t option;
      (** Measured-window latency histograms and counters, when the cell
          asked for them ([collect_metrics]). [None] otherwise, so points
          from plain sweeps still compare structurally. *)
}

type setup = {
  cfg : O2_simcore.Config.t;
  policy : Coretime.Policy.t;
  spec : O2_workload.Dir_workload.spec;
  warmup : int;  (** Cycles before the measured window. *)
  measure : int;  (** Cycles measured. *)
  oscillation : oscillation option;
  threads_per_core : int;
  placement : int array option;
      (** Explicit thread placement (defaults to one worker per core). *)
  collect_metrics : bool;
      (** Attach a metrics-only {!O2_obs.Recorder} for the measured
          window and return its registry in [point.metrics]. *)
}

val setup :
  ?cfg:O2_simcore.Config.t ->
  ?policy:Coretime.Policy.t ->
  ?warmup:int ->
  ?measure:int ->
  ?oscillation:oscillation ->
  ?threads_per_core:int ->
  ?placement:int array ->
  ?collect_metrics:bool ->
  O2_workload.Dir_workload.spec ->
  setup
(** Defaults: {!O2_simcore.Config.amd16}, {!Coretime.Policy.default},
    40 M cycles warmup, 40 M measured, no oscillation, 1 thread/core,
    no metrics. *)

val run : ?attach:(O2_runtime.Engine.t -> unit) -> setup -> point
(** Build everything, warm up, measure, and tear down. Deterministic in
    the spec's seed. Pure per cell: no state shared with other [run]s, so
    cells may run on separate domains.

    [attach] is called on the fresh engine before the workload is built —
    the hook for subscribing an {!O2_obs.Recorder} that should see the
    whole run (traces). Listeners must observe only; they run inline with
    the simulation. *)

val effective_jobs : jobs:int -> int
(** [jobs] clamped to [Domain.recommended_domain_count ()] — oversubscribing
    domains only slows an embarrassingly parallel sweep down. Logs to
    stderr (once per process) when it clamps. *)

val run_cells :
  ?attach:(int -> O2_runtime.Engine.t -> unit) ->
  jobs:int ->
  setup list ->
  point list
(** Run independent cells through a domain pool of
    [effective_jobs ~jobs] workers ({!O2_runtime.Domain_pool});
    [jobs = 1] is plain sequential [run]. Results are in input order and
    bit-identical whatever [jobs] is.

    [attach i engine] is each cell's {!run}[ ~attach] hook with the cell's
    input-order index — observatory sweeps use it to file per-cell
    trackers in caller-side slots (each worker touches only its own
    index; the pool joins before the caller reads). *)

val scaled : quick:bool -> int -> int
(** Scale a cycle horizon down (x1/4) in quick mode. *)

val kb_ladder : quick:bool -> int list
(** The Figure 4 x-axis: 256 KB .. 20 MB (fewer points when [quick]). *)

val ratio_summary :
  with_ct:O2_stats.Series.t -> without_ct:O2_stats.Series.t -> string
(** Human-readable comparison: speedup in the beyond-L3 region, parity
    region, crossover points — the claims Section 5 makes about Figure 4. *)
