(* o2sim: command-line front end for the CoreTime reproduction.

   `o2sim list` shows the experiment catalogue; `o2sim run fig4a ...`
   regenerates figures/tables; `o2sim machine` describes the simulated
   hardware. *)

open Cmdliner

let list_cmd =
  let doc = "List the experiment catalogue." in
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-26s %-55s [%s]%s\n" e.O2_experiments.Registry.id
          e.O2_experiments.Registry.title e.O2_experiments.Registry.paper_ref
          (if e.O2_experiments.Registry.default_set then " (default)" else ""))
      O2_experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let quick_arg =
  let doc = "Shorter warmup and measurement windows (x1/4, fewer points)." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

let ids_arg =
  let doc =
    "Experiment ids to run (see $(b,o2sim list)); default: the paper's \
     figures and tables."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let all_arg =
  let doc = "Run every experiment in the catalogue, ablations included." in
  Arg.(value & flag & info [ "all"; "a" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for experiments that sweep independent simulation \
     cells, clamped to the detected core count (the default). \
     $(b,--jobs 1) runs \
     everything sequentially; results are bit-identical whatever the \
     value."
  in
  Arg.(
    value
    & opt int (O2_native.Native_pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let out_arg =
  let doc = "Also write the report to this file." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let backend_arg =
  let doc =
    "$(b,sim) (default) runs experiments on the deterministic simulated \
     machine; $(b,native) runs the object/operation model's kv/dir \
     programs on real OCaml 5 domains instead and cross-checks their \
     results against the simulator (DESIGN.md, 'Two backends, one API'). \
     Native wall-clock ops/sec are measured by $(b,perfbench/run.py), \
     not here. Native mode takes no experiment ids; $(b,--metrics), \
     $(b,--trace) and $(b,--trace-sample) attach the wall-clock flight \
     recorder, while the flags that read simulated state \
     ($(b,--occupancy)/$(b,--heat)/$(b,--explain)) are \
     refused with a pointer at what to use instead."
  in
  Arg.(
    value
    & opt (Arg.enum [ ("sim", `Sim); ("native", `Native) ]) `Sim
    & info [ "backend" ] ~docv:"BACKEND" ~doc)

let domains_arg =
  let doc =
    "Worker domains for $(b,--backend native), clamped to the detected \
     core count. The oracle cross-check always runs at 1/2/4 domains \
     (taken literally); this adds one more point and sizes the \
     $(b,--metrics)/$(b,--trace) run. For native ops/sec use \
     $(b,perfbench/run.py --domains N)."
  in
  Arg.(value & opt int 2 & info [ "domains" ] ~docv:"N" ~doc)

let metrics_arg =
  let doc =
    "Attach the flight recorder's metrics registry and print latency \
     histograms / counters (quickstart, figures, and the ablations that \
     support per-cell metric columns); the histogram header names the \
     time unit (simulated cycles). With $(b,--backend native): attach \
     the wall-clock telemetry sinks and print the o2top readout in \
     nanoseconds plus a per-domain steal/ship/park breakdown."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let trace_arg =
  let doc =
    "Record the run with the flight recorder and write Chrome/Perfetto \
     trace_event JSON to $(docv) (load it at https://ui.perfetto.dev). \
     Both backends write the same format: one track per core (simulator) \
     or domain (native) plus the monitor's, op spans with their class and \
     queue/migrate/exec breakdown, shipped ops as flow arrows, and the \
     time unit in otherData (simulated cycles or wall-clock ns). On \
     figure sweeps the trace covers one representative 8 MB cell; with \
     $(b,--backend native) it covers the observed kv cell."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_sample_arg =
  let doc =
    "Keep the trace records of 1-in-$(docv) operations (1 = all), on \
     both backends; the metrics still count every op. Monitor periods, \
     scheduler decisions, steals, parks and inbox batches are always \
     kept."
  in
  Arg.(value & opt int 1 & info [ "trace-sample" ] ~docv:"N" ~doc)

let occupancy_arg =
  let doc =
    "Attach the cache observatory's occupancy tracker and print the \
     per-cache occupancy table (quickstart) or per-cell chip-line columns \
     (figures and ablations). Implied for the traced cell whenever \
     $(b,--trace) is given, so the Perfetto export always carries its \
     occupancy counter tracks."
  in
  Arg.(value & flag & info [ "occupancy" ] ~doc)

let occupancy_interval_arg =
  let doc =
    "Occupancy sampling interval in simulated cycles: every $(docv) \
     cycles the tracker snapshots per-cache line/object counts for the \
     timeline and the Perfetto counter tracks."
  in
  Arg.(
    value
    & opt int O2_experiments.Harness.no_obs.O2_experiments.Harness.occupancy_interval
    & info [ "occupancy-interval" ] ~docv:"CYCLES" ~doc)

let heat_arg =
  let doc =
    "Attach the cache observatory's per-object heat tracker and print the \
     top-$(b,--heat-top) table (ops, hits per level, fills, evictions) \
     after the run (quickstart)."
  in
  Arg.(value & flag & info [ "heat" ] ~doc)

let heat_top_arg =
  let doc = "Rows in the $(b,--heat) table (hottest objects first)." in
  Arg.(value & opt int 10 & info [ "heat-top" ] ~docv:"K" ~doc)

let explain_arg =
  let doc =
    "Record scheduler decision provenance and print every promotion, \
     migration, demotion, and rebalance decision with the inputs and \
     scores that produced it (quickstart; see also $(b,o2explain))."
  in
  Arg.(value & flag & info [ "explain" ] ~doc)

let run_cmd =
  let doc = "Run experiments and print paper-shaped tables and figures." in
  let run quick all jobs backend domains out metrics trace
      trace_sample occupancy occupancy_interval heat heat_top explain ids =
    if jobs < 1 then begin
      prerr_endline "o2sim: --jobs must be at least 1";
      exit 1
    end;
    let jobs = O2_native.Native_pool.clamped ~what:"--jobs" jobs in
    (match backend with
    | `Sim -> ()
    | `Native ->
        if domains < 1 then begin
          prerr_endline "o2sim: --domains must be at least 1";
          exit 1
        end;
        if ids <> [] || all then begin
          prerr_endline
            "o2sim: --backend native runs its own experiment — drop the \
             experiment ids / --all";
          exit 1
        end;
        (* Per-flag validation: --metrics/--trace/--trace-sample drive
           the native flight recorder; the flags that read simulated
           state get a precise refusal each. *)
        if occupancy then begin
          prerr_endline
            "o2sim: --occupancy reads the simulated memory system's cache \
             observatory; real caches are not modeled, so it only applies \
             to --backend sim. Native telemetry: --metrics / --trace";
          exit 1
        end;
        if heat then begin
          prerr_endline
            "o2sim: --heat ranks objects by simulated cache hits/fills and \
             only applies to --backend sim. Native telemetry: --metrics / \
             --trace";
          exit 1
        end;
        if explain then begin
          prerr_endline
            "o2sim: --explain records the simulated scheduler's decision \
             provenance and only applies to --backend sim (the native \
             monitor's rebalances appear in --trace instead)";
          exit 1
        end;
        if trace_sample < 1 then begin
          prerr_endline
            "o2sim: --trace-sample must be >= 1 (1 keeps every op span, N \
             keeps 1-in-N; steals/parks/rebalances are always kept)";
          exit 1
        end);
    let obs =
      {
        O2_experiments.Harness.metrics;
        trace;
        trace_sample;
        occupancy;
        occupancy_interval;
        heat;
        heat_top;
        explain;
      }
    in
    (match O2_experiments.Harness.validate_obs obs with
    | Ok () -> ()
    | Error msg ->
        prerr_endline ("o2sim: " ^ msg);
        exit 1);
    let ids = if all then O2_experiments.Registry.ids () else ids in
    let finish ppf result =
      Format.pp_print_flush ppf ();
      match result with
      | Ok () -> ()
      | Error msg ->
          prerr_endline ("o2sim: " ^ msg);
          exit 1
    in
    let go ppf =
      match backend with
      | `Native ->
          if
            O2_experiments.Native_exp.run_cli ~quick ~domains ~metrics ~trace
              ~trace_sample ppf
          then Ok ()
          else Error "native backend: oracle cross-check FAILED"
      | `Sim -> O2_experiments.Registry.run_ids ~obs ~quick ~jobs ppf ids
    in
    match out with
    | None -> finish Format.std_formatter (go Format.std_formatter)
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            let buf = Buffer.create 4096 in
            let ppf = Format.formatter_of_buffer buf in
            let result = go ppf in
            Format.pp_print_flush ppf ();
            output_string oc (Buffer.contents buf);
            print_string (Buffer.contents buf);
            finish Format.std_formatter result)
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run $ quick_arg $ all_arg $ jobs_arg $ backend_arg
      $ domains_arg $ out_arg $ metrics_arg $ trace_arg
      $ trace_sample_arg $ occupancy_arg $ occupancy_interval_arg $ heat_arg
      $ heat_top_arg $ explain_arg $ ids_arg)

let machine_cmd =
  let doc = "Describe the simulated machines." in
  let run () =
    List.iter
      (fun cfg ->
        Format.printf "%a@." O2_simcore.Config.pp cfg;
        Format.printf "  topology: %a@." O2_simcore.Topology.pp
          (O2_simcore.Topology.create cfg);
        Format.printf "  on-chip capacity: %d KB; per-core packing budget: %d KB@.@."
          (O2_simcore.Config.on_chip_capacity cfg / 1024)
          (O2_simcore.Config.per_core_budget cfg / 1024))
      [ O2_simcore.Config.amd16; O2_simcore.Config.small4; O2_simcore.Config.future64 ]
  in
  Cmd.v (Cmd.info "machine" ~doc) Term.(const run $ const ())

let main =
  let doc =
    "CoreTime: an O2 (object/operation) scheduler reproduction \
     (Boyd-Wickizer et al., HotOS 2009)"
  in
  Cmd.group
    (Cmd.info "o2sim" ~version:"1.0.0" ~doc)
    [ list_cmd; run_cmd; machine_cmd ]

let () = exit (Cmd.eval main)
