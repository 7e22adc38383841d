(** The examples/quickstart workload as a catalogue experiment: a bounded,
    deterministic run (each of the 16 cores performs a fixed number of
    annotated 64 KB table scans plus one lock-protected counter update) —
    the demo target for the observability flags.

    [o2sim run quickstart --trace out.json --metrics] records the whole
    run with an {!O2_obs.Recorder}, writes the Perfetto trace, and prints
    the o2top metrics table; the metrics [ops] counter equals the
    CoreTime completed-operation count exactly. [--occupancy], [--heat]
    and [--explain] attach the cache observatory; {!explain} is the
    [o2explain] CLI's everything-on report over the same run. *)

type result = {
  ops : int;
  promotions : int;
  op_migrations : int;
  horizon : int;  (** Virtual cycles until every worker finished. *)
  recorder : O2_obs.Recorder.t option;
}

val run : quick:bool -> obs:Harness.obs -> Format.formatter -> unit
(** Catalogue entry point: run, print the summary, and honour
    [obs.metrics] / [obs.trace] / [obs.occupancy] / [obs.heat] /
    [obs.explain]. *)

val explain : ?top:int -> quick:bool -> Format.formatter -> unit
(** The [o2explain] report: run quickstart with the full observatory
    attached and print the heat table (top [top], default 10), the
    occupancy summary, and every scheduler decision fully explained. *)

(**/**)

val execute :
  ?recorder_of:(O2_runtime.Engine.t -> O2_obs.Recorder.t) ->
  ?attach:(O2_runtime.Engine.t -> unit) ->
  quick:bool ->
  unit ->
  result
(** For tests: the trace-shape and observatory tests run quickstart and keep
    its result.
    Build and run the workload to completion. [recorder_of] (called on
    the fresh engine, before any thread is spawned) attaches the flight
    recorder whose handle comes back in [result.recorder] — used by the
    CLI and by the trace-shape tests. [attach] runs right after, for
    observatory subscriptions whose handles the caller keeps. *)
