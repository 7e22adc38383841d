(* o2sim: command-line front end for the CoreTime reproduction.

   `o2sim list` shows the experiment catalogue; `o2sim run fig4a ...`
   regenerates figures/tables (`--all` runs every experiment, ablations
   included); `o2sim fig4-json` times the quick Figure 4(a) sweep;
   `o2sim lint` runs the dynamic checkers as a gate; `o2sim machine`
   describes the simulated hardware. Native ops/sec come from
   perfbench/run.py, the repository's one benchmark protocol. *)

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

(* --jobs is validated and clamped here, for every subcommand that takes
   it. *)
let checked_jobs jobs =
  if jobs < 1 then begin
    prerr_endline "o2sim: --jobs must be at least 1";
    exit 1
  end;
  O2_native.Native_pool.clamped ~what:"--jobs" jobs

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
     scores that produced it (quickstart; with $(b,--occupancy) and \
     $(b,--heat) it is the full cache-observatory report)."
  in
  Arg.(value & flag & info [ "explain" ] ~doc)

let run_cmd =
  let doc = "Run experiments and print paper-shaped tables and figures." in
  let run quick all jobs backend domains out metrics trace
      trace_sample occupancy occupancy_interval heat heat_top explain ids =
    let jobs = checked_jobs jobs in
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

(* ------------------------------------------------------------------ *)
(* Figure 4 wall-clock: the harness-parallelism headline number         *)

(* Times the quick Figure 4(a) sweep [fig4_trials] times each at jobs=1
   and jobs=N, alternating, and checks every sweep's rows are
   bit-identical to the first (the determinism contract of
   Harness.run_cells). Each wall-clock is written as the median with its
   min and max, beside the host core count. The JSON is a CI artifact, so
   the sweep time can be trended across commits. *)
let fig4_trials = 3

let run_fig4_json ~jobs path =
  let sweep jobs =
    let t0 = Unix.gettimeofday () in
    let rows =
      O2_experiments.Figure4.sweep ~jobs ~quick:true ~oscillation:None ()
    in
    (rows, Unix.gettimeofday () -. t0)
  in
  let trials = List.init fig4_trials (fun _ -> (sweep 1, sweep jobs)) in
  let rows = fst (fst (List.hd trials)) in
  let identical =
    List.for_all (fun ((r1, _), (rn, _)) -> r1 = rows && rn = rows) trials
  in
  let spread pick =
    let ts = List.sort Float.compare (List.map pick trials) in
    (List.nth ts (fig4_trials / 2), List.hd ts, List.nth ts (fig4_trials - 1))
  in
  let med_seq, min_seq, max_seq = spread (fun ((_, t), _) -> t) in
  let med_par, min_par, max_par = spread (fun (_, (_, t)) -> t) in
  let seconds_json key (med, lo, hi) =
    Printf.sprintf
      "  \"%s\": {\"median\": %.3f, \"min\": %.3f, \"max\": %.3f},"
      key med lo hi
  in
  let row_json r =
    Printf.sprintf
      "    {\"kb\": %d, \"without_ct_kres\": %.3f, \"with_ct_kres\": %.3f}"
      r.O2_experiments.Figure4.kb
      r.O2_experiments.Figure4.without_ct.O2_experiments.Harness.kres_per_sec
      r.O2_experiments.Figure4.with_ct.O2_experiments.Harness.kres_per_sec
  in
  let json =
    String.concat "\n"
      ([
         "{";
         "  \"benchmark\": \"fig4a quick sweep wall-clock\",";
         Printf.sprintf "  \"available_cores\": %d,"
           (O2_native.Native_pool.default_jobs ());
         Printf.sprintf "  \"trials\": %d," fig4_trials;
         seconds_json "seconds_jobs1" (med_seq, min_seq, max_seq);
         Printf.sprintf "  \"jobs\": %d," jobs;
         seconds_json "seconds_jobsN" (med_par, min_par, max_par);
         Printf.sprintf "  \"speedup\": %.2f,"
           (if med_par > 0.0 then med_seq /. med_par else nan);
         Printf.sprintf "  \"rows_bit_identical\": %b," identical;
         "  \"rows\": [";
       ]
      @ [ String.concat ",\n" (List.map row_json rows) ]
      @ [ "  ]"; "}"; "" ])
  in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf
    "fig4a quick sweep, median of %d [min, max]: %.2fs [%.2f, %.2f] at \
     jobs=1, %.2fs [%.2f, %.2f] at jobs=%d\n"
    fig4_trials med_seq min_seq max_seq med_par min_par max_par jobs;
  Printf.printf "rows bit-identical across all %d sweeps: %b\n"
    (2 * fig4_trials) identical;
  Printf.printf "wrote %s\n" path;
  if identical then 0 else 1

let fig4_json_cmd =
  let doc =
    "Time the quick Figure 4(a) sweep three times each at jobs=1 and \
     jobs=N (alternating; N is $(b,--jobs), at least 2), write the \
     median/min/max wall-clock and the rows as JSON to $(i,FILE), and \
     exit 1 if any sweep's rows differ from the first's."
  in
  let path_arg =
    let doc = "Where to write the JSON report." in
    Arg.(value & pos 0 string "BENCH_fig4.json" & info [] ~docv:"FILE" ~doc)
  in
  let run jobs path =
    (* at least 2 so the parallel leg exercises real domains even on a
       single-core machine *)
    exit (run_fig4_json ~jobs:(max 2 (checked_jobs jobs)) path)
  in
  Cmd.v
    (Cmd.info "fig4-json" ~doc)
    Term.(const run $ jobs_arg $ path_arg)

(* ------------------------------------------------------------------ *)
(* o2check's dynamic passes as a gate                                   *)

(* Two stages; any diagnostic fails the run (exit 1):
   1. the lockset race detector, lock-order graph and O2 invariants over
      the quickstart workload (annotated table scans plus a lock-protected
      shared counter), bounded so every thread finishes and the
      end-of-life checks run too;
   2. the same checkers over a small Figure-4 configuration with
      oscillating popularity, so the rebalancer runs and is audited while
      it works.
   The static side is o2staticcheck; `dune build @lint` runs both. *)

let banner title = Printf.printf "== %s ==\n%!" title

let check_quickstart () =
  let check = ref None in
  let r =
    O2_experiments.Quickstart_exp.execute ~quick:false
      ~attach:(fun ct -> check := Some (O2_analysis.Analysis.attach ct))
      ()
  in
  let check = Option.get !check in
  O2_analysis.Analysis.finish check;
  Printf.printf "quickstart workload: %d ops, %d promotions, %d migrations\n"
    r.O2_experiments.Quickstart_exp.ops
    r.O2_experiments.Quickstart_exp.promotions
    r.O2_experiments.Quickstart_exp.op_migrations;
  check

let check_fig4_small () =
  let open O2_simcore in
  let open O2_runtime in
  let machine = Machine.create Config.amd16 in
  let engine = Engine.create machine in
  let ct = Coretime.create ~policy:Coretime.Policy.default engine () in
  let check = O2_analysis.Analysis.attach ct in
  let spec = O2_workload.Dir_workload.spec_for_data_kb ~kb:1024 () in
  let w = O2_workload.Dir_workload.build ct spec in
  O2_workload.Dir_workload.spawn_threads w;
  O2_workload.Phase.oscillate_active engine w ~period:1_500_000 ~divisor:4;
  Engine.run ~until:6_000_000 engine;
  O2_analysis.Analysis.finish check;
  Printf.printf
    "figure-4 small (%d KB, %d dirs): %d lookups, %d rebalancer periods\n"
    (O2_workload.Dir_workload.data_kb spec)
    spec.O2_workload.Dir_workload.dirs
    (O2_workload.Dir_workload.lookups_done w)
    (Coretime.Rebalancer.stats (Coretime.rebalancer ct))
      .Coretime.Rebalancer.periods;
  (* The audit above ran after every Rebalanced event; finish with one
     explicit pass over the final table so the index cross-check (per-core
     assignment lists, active set vs ops_period) is visibly part of the
     gate even if the run ended between periods. *)
  (match Coretime.Object_table.check_accounting (Coretime.table ct) with
  | Ok () ->
      Printf.printf
        "object-table index audit: consistent (%d assigned, %d active)\n"
        (Coretime.Object_table.assigned_count (Coretime.table ct))
        (Coretime.Object_table.active_count (Coretime.table ct))
  | Error e -> Printf.printf "object-table index audit: FAILED: %s\n" e);
  check

let print_dynamic name check =
  let open O2_analysis in
  if Analysis.is_clean check then begin
    Printf.printf "%s: clean\n" name;
    0
  end
  else begin
    Format.printf "%a" Analysis.pp check;
    Report.count (Analysis.report check) + Report.dropped (Analysis.report check)
  end

let lint_cmd =
  let doc =
    "o2check: the race / lock-order / invariant checkers over the \
     quickstart and Figure-4-small workloads; exit 1 on any diagnostic."
  in
  let run () =
    banner "dynamic checks: quickstart workload";
    let issues = print_dynamic "quickstart" (check_quickstart ()) in
    banner "dynamic checks: figure-4 small";
    let issues =
      issues + print_dynamic "figure-4 small" (check_fig4_small ())
    in
    if issues = 0 then print_endline "o2sim lint: no diagnostics"
    else begin
      Printf.printf "o2sim lint: %d diagnostic(s)\n" issues;
      exit 1
    end
  in
  Cmd.v (Cmd.info "lint" ~doc) Term.(const run $ const ())

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
    [ list_cmd; run_cmd; fig4_json_cmd; lint_cmd; machine_cmd ]

let () = exit (Cmd.eval main)
