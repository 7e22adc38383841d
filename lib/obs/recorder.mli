(** The simulator's flight recorder: a probe listener that writes the
    run into a {!O2_runtime.Telemetry} capture and keeps a {!Metrics}
    registry up to date — all without touching simulator state
    (listeners observe; they never perform {!O2_runtime.Api} effects).

    Costs are paid only when attached: with no listener the engine's
    probes are guarded out entirely (see {!O2_runtime.Probe.active}).

    {2 The capture}

    One sink per simulated core plus the monitor's, in the
    coordinator's slot, stamped with the probe event's simulated cycle
    (the capture's clock is {!O2_runtime.Telemetry.Cycles}). An
    annotated operation — one [Coretime.ct_start] .. [ct_end] region —
    is written like a native op:

    - [Op_requested] mints a token and writes [Submit] on the requesting
      core's sink (1-in-[sample] ops keep their records; every op counts
      in the metrics);
    - the op's migration writes [Ship_out] on the core it leaves, at the
      departure (it lands as it starts, so no [Ship_in] is written);
    - [Op_started] writes [Start] ([c] = the object's home, [-1] when
      unassigned) and [Op_ended] writes [End].

    Nested operations keep a per-thread stack of open spans. Each
    monitor period ([Rebalanced]: moves, demotions) and each scheduler
    [Decision] (kind, object base, core — see
    {!Capture.decision_kinds}) goes to the monitor sink. Memory, lock
    and thread-lifecycle events only feed the counters. Read the capture
    with {!Capture} and export it with [Trace_export].

    {2 Metrics maintained}

    Counters: [ops], [migrations], [locks/acquired], [locks/handoffs],
    [threads/spawned], [threads/finished], [mem/events],
    [rebalance/periods], [rebalance/moves], [rebalance/demotions] and
    [decisions/*]. Histograms: [op/latency] plus the [op/home_hit]/
    [op/remote]/[op/migrated] split (all request→end, in cycles) and the
    [op/queue]/[op/migrate]/[op/exec] breakdown ({!Capture.queue} and
    friends); [monitor/idle_pct], [monitor/dram_loads],
    [monitor/l2_hits] sampled per core at each monitor period. Gauges:
    per-core [coreNN/idle_frac], [coreNN/dram_loads], [coreNN/l2_hits]
    for the most recent period. *)

type t

val attach : ?ring_capacity:int -> ?sample:int -> O2_runtime.Engine.t -> t
(** Subscribe a recorder to the engine's probe for the engine's
    lifetime. [ring_capacity] is records per sink (default [2^16], as
    {!O2_runtime.Telemetry.create}: 2.5 MB a sink; [0] keeps no records —
    metrics only); a full sink drops new records and counts them. [sample] keeps the records of 1-in-[sample] ops
    (default 1 = all; [0] = none); monitor records are always kept.
    @raise Invalid_argument on a negative argument. *)

val metrics : t -> Metrics.t

val capture : t -> O2_runtime.Telemetry.t

val obj_name : t -> int -> string
(** An object's display name: the name the scheduler's decisions gave
    it, else its {!O2_simcore.Memsys} extent's. *)
