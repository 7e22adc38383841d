(** The examples/quickstart workload as a catalogue experiment: a bounded,
    deterministic run (each of the 16 cores performs a fixed number of
    annotated 64 KB table scans plus one lock-protected counter update) —
    the demo target for the observability flags.

    [o2sim run quickstart --trace out.json --metrics] records the whole
    run with an {!O2_obs.Recorder}, writes the Perfetto trace, and prints
    the o2top metrics table; the metrics [ops] counter equals the
    CoreTime completed-operation count exactly. [--occupancy], [--heat]
    and [--explain] attach the cache observatory; all three together are
    the everything-on report over the same run. *)

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

val execute :
  ?recorder_of:(O2_runtime.Engine.t -> O2_obs.Recorder.t) ->
  ?attach:(Coretime.t -> unit) ->
  quick:bool ->
  unit ->
  result
(** Build and run the workload to completion and return its result:
    [o2sim lint] runs its dynamic checkers over it, and the trace-shape
    and observatory tests keep its handles. [recorder_of] (called on
    the fresh engine, before any thread is spawned) attaches the flight
    recorder whose handle comes back in [result.recorder] — used by the
    CLI and by the trace-shape tests. [attach] runs right after, on the
    fresh CoreTime instance (its engine is {!Coretime.engine}), for
    observatory subscriptions or checkers whose handles the caller
    keeps. *)
