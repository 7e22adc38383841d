(** Exporters for a {!O2_runtime.Telemetry} capture, from either backend.

    {!to_string} / {!write_file} produce Chrome [trace_event] JSON (the
    object-with-[traceEvents] form), loadable in Perfetto
    ({:https://ui.perfetto.dev}) or [chrome://tracing]:

    - one named track per sink ([pid] 0, [tid] = sink): [core N] plus
      [monitor] for a simulated machine, [domain N] plus [coordinator]
      natively;
    - each complete op span ({!Capture.span}) as a complete event
      ([ph:"X"]) on the sink that executed it, with its {!Capture.op_class}
      and its queue/migrate/exec breakdown in [args];
    - each shipped op as a flow arrow ([ph:"s"]/[ph:"f"], id = the op's
      token) from the submitter at the departure to the executor at the
      landing;
    - each monitor period ([Rebalance]) as a global instant carrying its
      moves/demotions, and each scheduler [Decision] as a thread-scoped
      instant ([decision/promote], [decision/move], ...) on the core the
      action landed on;
    - native park..wake windows as [parked] idle spans, steals as
      instants naming the victim, quiesces as coordinator instants, and
      inbox batch sizes as a per-domain counter series;
    - with [?occupancy] (simulator), one counter track ([ph:"C"],
      [occ/<cache>]) per cache charting resident lines and distinct
      objects over time.

    The capture's clock sets the time domain: simulated cycles are
    divided by the machine's clock rate, wall-clock nanoseconds are
    rebased to the capture's first record, and both become the
    microseconds the format expects. [otherData] carries ring-drop
    accounting (retained and dropped records, complete and incomplete
    spans, occupancy samples) plus [time_unit]/[clock] labels
    (["simulated cycles"]/["virtual"] or
    ["wall-clock ns"]/["CLOCK_MONOTONIC"]), so a trace can never be
    misread across the two time domains.

    A {!source} names each span's and decision's object: a recorder by
    {!Recorder.obj_name}, a raw capture as [objN].

    {!ascii_timeline} renders the same capture as a per-sink text
    timeline for terminals and docs. *)

type source =
  | Raw of O2_runtime.Telemetry.t  (** A native capture, or any other. *)
  | Recorded of Recorder.t  (** The simulator recorder's capture. *)

val write_file : ?occupancy:Occupancy.t -> source -> path:string -> unit

(**/**)

val to_string : ?occupancy:Occupancy.t -> source -> string
(** For tests: the trace JSON without a file, for the shape tests to parse. *)

val ascii_timeline : ?width:int -> O2_runtime.Telemetry.t -> string
(** For tests: renders EXPERIMENTS.md E4's timeline; the test that
    prints it is its caller.
    One lane per sink, named as its trace track: [#] marks an executing
    operation span, [>]/[<] a shipped op leaving/landing in a column
    where the lane runs no op, [R] a rebalance period. [width] is the
    number of time columns (default 72). *)
