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

val run : domains:int -> Format.formatter -> bool
(** Print the oracle table and return the conjunction of its [ok]s. *)

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
