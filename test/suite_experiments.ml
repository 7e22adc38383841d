(* Experiment-level checks: the latency table matches Section 5 exactly,
   the registry is sound, and a scaled-down Figure 4 point reproduces the
   paper's qualitative claim (CoreTime wins once data exceeds the per-chip
   L3). *)

open O2_experiments

let test_latency_matches_paper () =
  Alcotest.(check (float 1e-9)) "simulated machine hits the paper's numbers"
    0.0
    (Latency_table.max_deviation ())

let test_latency_rows_complete () =
  let rows = Latency_table.all () in
  Alcotest.(check int) "nine probes" 9 (List.length rows);
  let migration = List.nth rows 8 in
  Alcotest.(check int) "migration measures 2000" 2000
    migration.Latency_table.measured_cycles

let test_registry_sound () =
  let ids = Registry.ids () in
  Alcotest.(check bool) "non-empty" true (ids <> []);
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun id ->
      match Registry.find id with
      | Some e -> Alcotest.(check string) "find returns the entry" id e.Registry.id
      | None -> Alcotest.failf "missing %s" id)
    ids;
  Alcotest.(check bool) "unknown id is an error" true
    (Result.is_error
       (Registry.run_ids ~quick:true ~jobs:1 Format.str_formatter [ "nope" ]));
  Alcotest.(check bool) "default set non-empty" true
    (List.exists (fun e -> e.Registry.default_set) Registry.all)

(* A failed check inside an experiment (the native oracle's verdict) comes
   back from run_ids as an [Error], which o2sim turns into a nonzero
   exit, and the other selected experiments still run. *)
let test_registry_carries_failure () =
  let ran = ref [] in
  let exp id verdict =
    {
      Registry.id;
      title = id;
      paper_ref = "-";
      default_set = true;
      run =
        (fun ~quick:_ ~jobs:_ ~obs:_ _ ->
          ran := id :: !ran;
          verdict);
    }
  in
  let catalogue =
    [ exp "a" (Ok ()); exp "bad" (Error "bad: check FAILED"); exp "b" (Ok ()) ]
  in
  let run ids =
    Registry.run_ids ~catalogue ~quick:true ~jobs:1 Format.str_formatter ids
  in
  let verdict = Alcotest.(result unit string) in
  Alcotest.check verdict "failure carried" (Error "bad: check FAILED")
    (run []);
  Alcotest.(check (list string)) "every selected experiment ran"
    [ "a"; "bad"; "b" ] (List.rev !ran);
  Alcotest.check verdict "passing selection" (Ok ()) (run [ "a"; "b" ]);
  Alcotest.check verdict "failure among named ids"
    (Error "bad: check FAILED") (run [ "bad"; "b" ])

let test_harness_point_shape () =
  let spec = O2_workload.Dir_workload.spec_for_data_kb ~kb:1024 () in
  let p =
    Harness.run
      (Harness.setup ~policy:Coretime.Policy.baseline ~warmup:2_000_000
         ~measure:2_000_000 spec)
  in
  Alcotest.(check int) "data size recorded" 1024 p.Harness.data_kb;
  Alcotest.(check bool) "ops measured" true (p.Harness.ops > 0);
  Alcotest.(check bool) "throughput positive" true (p.Harness.kres_per_sec > 0.0);
  Alcotest.(check int) "baseline never migrates" 0 p.Harness.op_migrations

let test_kb_ladder () =
  let full = Harness.kb_ladder ~quick:false in
  let quick = Harness.kb_ladder ~quick:true in
  Alcotest.(check bool) "quick is a subset" true
    (List.for_all (fun kb -> List.mem kb full) quick);
  Alcotest.(check bool) "covers the paper's range" true
    (List.hd full <= 256 && List.nth full (List.length full - 1) >= 20480);
  Alcotest.(check bool) "sorted" true (List.sort compare full = full)

(* The headline claim, scaled down: at 6.4 MB (beyond every L3, inside
   total on-chip memory) CoreTime beats the thread scheduler by a wide
   margin; at 1 MB (fits in each chip's L3) they are comparable. *)
let test_paper_claim_beyond_l3 () =
  let run policy kb =
    let spec = O2_workload.Dir_workload.spec_for_data_kb ~kb () in
    (Harness.run
       (Harness.setup ~policy ~warmup:30_000_000 ~measure:15_000_000 spec))
      .Harness.kres_per_sec
  in
  let base = run Coretime.Policy.baseline 6400 in
  let ct = run Coretime.Policy.default 6400 in
  Alcotest.(check bool)
    (Printf.sprintf "CoreTime wins beyond L3 (%.0f vs %.0f)" ct base)
    true
    (ct > 1.5 *. base)

let test_paper_claim_fits_in_l3 () =
  let run policy kb =
    let spec = O2_workload.Dir_workload.spec_for_data_kb ~kb () in
    (Harness.run
       (Harness.setup ~policy ~warmup:10_000_000 ~measure:10_000_000 spec))
      .Harness.kres_per_sec
  in
  let base = run Coretime.Policy.baseline 1024 in
  let ct = run Coretime.Policy.default 1024 in
  Alcotest.(check bool)
    (Printf.sprintf "no collapse when data fits on chip (%.0f vs %.0f)" ct base)
    true
    (ct > 0.8 *. base)

(* The tentpole guarantee of the parallel harness: dispatching cells
   through Native_pool.map changes wall-clock only, never results. Every
   point field is an int or a float computed from per-cell state, so
   structural equality is bit-identity. *)
let test_parallel_sweep_bit_identical () =
  let cells =
    List.concat_map
      (fun kb ->
        let spec = O2_workload.Dir_workload.spec_for_data_kb ~kb () in
        List.map
          (fun policy ->
            Harness.setup ~policy ~warmup:2_000_000 ~measure:2_000_000 spec)
          [ Coretime.Policy.baseline; Coretime.Policy.default ])
      [ 256; 1024 ]
  in
  let seq = Harness.run_cells ~jobs:1 cells in
  let par = Harness.run_cells ~jobs:4 cells in
  Alcotest.(check int) "cell count" (List.length cells) (List.length par);
  Alcotest.(check bool) "jobs=4 rows bit-identical to jobs=1" true (seq = par)

(* Golden rows: the indexed object table and allocation-free rebalance
   path are pure reorganisations of the monitor's bookkeeping, so the
   fig4(a)/(b) small sweeps and the ablation grid must stay bit-identical
   to the pre-index implementation. The digests below were captured from
   the full-scan monitor (commit a3b9012); every point field — floats
   included — is marshalled, so any drift in promotion, demotion,
   displacement, or move decisions shows up here. Checked at several
   --jobs widths, taken literally (4 oversubscribes a 2-core host). *)
let digest_points (points : Harness.point list) =
  Digest.to_hex (Digest.string (Marshal.to_string points []))

let golden_cells ~oscillation =
  List.concat_map
    (fun kb ->
      let spec = O2_workload.Dir_workload.spec_for_data_kb ~kb () in
      List.map
        (fun policy ->
          Harness.setup ~policy ~warmup:2_000_000 ~measure:2_000_000
            ?oscillation spec)
        [ Coretime.Policy.baseline; Coretime.Policy.default ])
    [ 256; 1024 ]

let golden_ablation_cells () =
  let spec = O2_workload.Dir_workload.spec_for_data_kb ~kb:1024 () in
  List.map
    (fun policy ->
      Harness.setup ~policy ~warmup:2_000_000 ~measure:2_000_000 spec)
    [
      Coretime.Policy.baseline;
      { Coretime.Policy.default with Coretime.Policy.evict_for_hotter = true };
      { Coretime.Policy.default with Coretime.Policy.replicate_read_only = true };
      { Coretime.Policy.default with Coretime.Policy.op_shipping = true };
      { Coretime.Policy.default with Coretime.Policy.clustering = true };
    ]

let check_golden ?attach name cells ~digest ~total_ops =
  let points = Harness.run_cells ?attach ~jobs:1 cells in
  Alcotest.(check int)
    (name ^ ": total measured ops")
    total_ops
    (List.fold_left (fun a p -> a + p.Harness.ops) 0 points);
  Alcotest.(check string)
    (name ^ ": rows bit-identical to the pre-index monitor")
    digest (digest_points points);
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "%s: bit-identical at jobs=%d" name jobs)
        digest
        (digest_points (Harness.run_cells ?attach ~jobs cells)))
    [ 2; 4 ]

let test_golden_fig4a () =
  check_golden "fig4a-small" (golden_cells ~oscillation:None)
    ~digest:"881b2ecc755a2780629f98822c71d67c" ~total_ops:8996

let test_golden_fig4b () =
  check_golden "fig4b-small"
    (golden_cells
       ~oscillation:(Some { Harness.period = 500_000; divisor = 4 }))
    ~digest:"112fb861a3f196562a10bb1fca246594" ~total_ops:6205

let test_golden_ablations () =
  check_golden "ablation-small"
    (golden_ablation_cells ())
    ~digest:"43cec61125686ca9e489d44ec90266e0" ~total_ops:6196

(* The cache observatory's standing invariant: occupancy, heat and
   provenance trackers only observe, so running the same golden cells
   with the full observatory attached — at every --jobs width — must
   reproduce the same digests bit for bit. *)
let observatory_attach _cell engine =
  ignore
    (O2_obs.Occupancy.attach ~interval:200_000
       (O2_runtime.Engine.machine engine));
  ignore (O2_obs.Heat.attach engine);
  ignore (O2_obs.Provenance.attach engine)

let test_golden_fig4a_observed () =
  check_golden "fig4a-small+observatory" ~attach:observatory_attach
    (golden_cells ~oscillation:None)
    ~digest:"881b2ecc755a2780629f98822c71d67c" ~total_ops:8996

let test_golden_fig4b_observed () =
  check_golden "fig4b-small+observatory" ~attach:observatory_attach
    (golden_cells
       ~oscillation:(Some { Harness.period = 500_000; divisor = 4 }))
    ~digest:"112fb861a3f196562a10bb1fca246594" ~total_ops:6205

let test_golden_ablations_observed () =
  check_golden "ablation-small+observatory" ~attach:observatory_attach
    (golden_ablation_cells ())
    ~digest:"43cec61125686ca9e489d44ec90266e0" ~total_ops:6196

(* E10's serial golden: the future 64-core config (8 chips of 8 cores;
   core 63 lives in the second presence-mask word) over short horizons,
   one baseline and one CoreTime cell. Captured from the serial engine
   before the sharded engine was deleted. *)
let golden_future_cells () =
  let spec = O2_workload.Dir_workload.spec_for_data_kb ~kb:256 () in
  List.map
    (fun policy ->
      Harness.setup ~cfg:O2_simcore.Config.future64 ~policy ~warmup:1_000_000
        ~measure:1_000_000 spec)
    [ Coretime.Policy.baseline; Coretime.Policy.default ]

let test_golden_future () =
  check_golden "future64-small (E10)" (golden_future_cells ())
    ~digest:"c5e4320e1e11b908f02b491149a2b94d" ~total_ops:535

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The quickstart observatory report, as `o2sim run --occupancy --heat
   --explain quickstart` prints it: heat, occupancy and provenance
   sections, the heat table cut to [heat_top] rows, and the promotions
   explained. *)
let test_quickstart_observatory_report () =
  let buf = Buffer.create 8192 in
  let ppf = Format.formatter_of_buffer buf in
  let obs =
    {
      Harness.no_obs with
      Harness.occupancy = true;
      heat = true;
      heat_top = 3;
      explain = true;
    }
  in
  (match Registry.run_ids ~obs ~quick:true ~jobs:1 ppf [ "quickstart" ] with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Format.pp_print_flush ppf ();
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  let has prefix = List.exists (String.starts_with ~prefix) lines in
  List.iter
    (fun header ->
      Alcotest.(check bool) (header ^ " section present") true (has header))
    [
      "-- cache observatory: heat --";
      "-- cache observatory: occupancy --";
      "-- decision provenance:";
    ];
  (* the heat rows run from the rule under the table's column header to
     the next blank line *)
  let rec after p = function
    | [] -> []
    | l :: rest -> if p l then rest else after p rest
  in
  let rec count_rows n = function
    | "" :: _ | [] -> n
    | _ :: rest -> count_rows (n + 1) rest
  in
  let heat_rows =
    lines
    |> after (String.equal "-- cache observatory: heat --")
    |> after (String.starts_with ~prefix:"---")
    |> count_rows 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "heat table has 1..3 rows (got %d)" heat_rows)
    true
    (heat_rows >= 1 && heat_rows <= 3);
  (* a decision line reads "[t=<cycles>] promote <object> ..." *)
  Alcotest.(check bool) "at least one promote decision" true
    (List.exists
       (fun l ->
         String.starts_with ~prefix:"[t=" l && contains ~sub:"] promote " l)
       lines)

let test_validate_obs () =
  Alcotest.(check bool) "defaults validate" true
    (Result.is_ok (Harness.validate_obs Harness.no_obs));
  let check_rejected name obs =
    match Harness.validate_obs obs with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s should have been rejected" name
  in
  check_rejected "trace_sample 0"
    { Harness.no_obs with Harness.trace_sample = 0 };
  (match
     Harness.validate_obs { Harness.no_obs with Harness.trace_sample = 0 }
   with
  | Error msg ->
      Alcotest.(check bool)
        "the --trace-sample refusal says it samples op spans" true
        (contains ~sub:"op span" msg)
  | Ok () -> ());
  check_rejected "trace_sample negative"
    { Harness.no_obs with Harness.trace_sample = -3 };
  check_rejected "occupancy_interval 0"
    { Harness.no_obs with Harness.occupancy_interval = 0 };
  check_rejected "heat_top 0" { Harness.no_obs with Harness.heat_top = 0 }

let test_jobs_clamped () =
  let avail = O2_native.Native_pool.default_jobs () in
  Alcotest.(check int) "within the core count is untouched" 1
    (O2_native.Native_pool.clamped ~what:"--jobs" 1);
  Alcotest.(check int) "oversubscription clamps to the core count" avail
    (O2_native.Native_pool.clamped ~what:"--jobs" (avail + 7))

let test_fig2_partitioning () =
  let o2 = Fig2.run_one ~policy:Fig2.o2_policy ~scheduler:"o2" in
  let thread =
    Fig2.run_one ~policy:Coretime.Policy.baseline ~scheduler:"thread"
  in
  Alcotest.(check bool) "O2 keeps more distinct data on chip" true
    (o2.Fig2.distinct_lines > thread.Fig2.distinct_lines);
  Alcotest.(check bool) "O2 leaves no more off-chip than the thread scheduler"
    true
    (List.length o2.Fig2.off_chip <= List.length thread.Fig2.off_chip)

(* The native experiment is the oracle table alone: one OK row per
   workload at each ladder rung (--domains 2 adds none), and no
   throughput table — native ops/sec come from perfbench. *)
let test_native_exp_oracle_only () =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let ok = Native_exp.run ~domains:2 ppf in
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  let lines = String.split_on_char '\n' out |> List.map String.trim in
  Alcotest.(check bool) "oracle verdict" true ok;
  List.iter
    (fun w ->
      List.iter
        (fun d ->
          let row = Printf.sprintf "oracle OK: domains=%d " d in
          Alcotest.(check int)
            (Printf.sprintf "one %s row at domains=%d" w d)
            1
            (List.length
               (List.filter
                  (fun l -> String.starts_with ~prefix:w l && contains ~sub:row l)
                  lines)))
        [ 1; 2; 4 ])
    [ "kv_store"; "dir_workload" ];
  Alcotest.(check int) "six oracle rows" 6
    (List.length (List.filter (contains ~sub:"oracle OK:") lines));
  Alcotest.(check bool) "no ops/sec header" false (contains ~sub:"ops/sec" out)

let suite =
  [
    Alcotest.test_case "latencies match Section 5" `Quick test_latency_matches_paper;
    Alcotest.test_case "latency table is complete" `Quick test_latency_rows_complete;
    Alcotest.test_case "experiment registry" `Quick test_registry_sound;
    Alcotest.test_case "registry carries a failed check as an Error" `Quick
      test_registry_carries_failure;
    Alcotest.test_case "harness point fields" `Quick test_harness_point_shape;
    Alcotest.test_case "figure 4 x-axis ladder" `Quick test_kb_ladder;
    Alcotest.test_case "parallel sweep is bit-identical" `Slow
      test_parallel_sweep_bit_identical;
    Alcotest.test_case "golden rows: figure 4(a) small" `Slow test_golden_fig4a;
    Alcotest.test_case "golden rows: figure 4(b) small" `Slow test_golden_fig4b;
    Alcotest.test_case "golden rows: ablation grid" `Slow test_golden_ablations;
    Alcotest.test_case "golden rows: figure 4(a) with the observatory" `Slow
      test_golden_fig4a_observed;
    Alcotest.test_case "golden rows: figure 4(b) with the observatory" `Slow
      test_golden_fig4b_observed;
    Alcotest.test_case "golden rows: ablations with the observatory" `Slow
      test_golden_ablations_observed;
    Alcotest.test_case "quickstart observatory report" `Quick
      test_quickstart_observatory_report;
    Alcotest.test_case "observability knob validation" `Quick test_validate_obs;
    Alcotest.test_case "--jobs clamps to the core count" `Quick
      test_jobs_clamped;
    Alcotest.test_case "paper claim: CoreTime wins beyond L3" `Slow test_paper_claim_beyond_l3;
    Alcotest.test_case "paper claim: parity when data fits" `Slow test_paper_claim_fits_in_l3;
    Alcotest.test_case "figure 2: O2 partitions the caches" `Slow test_fig2_partitioning;
    Alcotest.test_case "native experiment prints the oracle table only" `Slow
      test_native_exp_oracle_only;
    Alcotest.test_case "golden rows: future64 small (E10)" `Slow
      test_golden_future;
  ]
