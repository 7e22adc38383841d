(** The native-backend experiment: the simulator-as-oracle cross-check
    on real OCaml 5 domains, plus the flight-recorder run behind
    [--metrics]/[--trace].

    The oracle half — identical logical results on both backends over a
    domain ladder of [1; 2; 4] — is what CI gates on. The ladder is taken
    literally (oversubscribed domains time-share); only the CLI's
    --domains flag clamps, via {!O2_native.Native_pool.clamped}. Native
    wall-clock ops/sec and latency percentiles come from
    [perfbench/run.py] (workloads [native_kv] and [native_dir]), the
    repository's one measurement protocol. *)

val oracle_reports :
  domains:int -> (string * O2_native.Oracle.report) list
(** Simulator-vs-native cross-checks for both workloads at domains
    [1; 2; 4] plus [domains] when distinct. *)

val run : domains:int -> Format.formatter -> bool
(** Print the oracle table and return the conjunction of its [ok]s. *)

val observed_cell :
  quick:bool ->
  domains:int ->
  sample:int ->
  metrics:bool ->
  trace:string option ->
  Format.formatter ->
  unit
(** One kv run with the full flight recorder attached (ring capacity
    2^18, op spans sampled 1-in-[sample]); with [metrics] prints the
    o2top latency/counter readout (unit-labeled wall-clock ns) and the
    per-domain breakdown, with [trace] writes the Perfetto export.
    [quick] quarters the per-client op count. *)

val run_cli :
  quick:bool ->
  domains:int ->
  metrics:bool ->
  trace:string option ->
  trace_sample:int ->
  Format.formatter ->
  bool
(** The [o2sim run --backend native] entry point: clamps [domains]
    through {!O2_native.Native_pool.clamped}, runs {!run}, then the
    {!observed_cell} when [metrics] or [trace] ask for it. Returns the
    oracle verdict — callers should exit nonzero on [false]. *)
