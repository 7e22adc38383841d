(* The benchmark harness.

   Default invocation regenerates every table and figure of the paper plus
   the Section 4/6 ablations, printing paper-shaped rows (see
   EXPERIMENTS.md for the mapping). `--quick` shrinks windows and ladders;
   positional arguments select experiments by id; `--bechamel` runs the
   microbenchmark suite instead (one Bechamel test per experiment kernel,
   including the Θ(n log n) cache-packing claim, E5). *)

let experiments ~quick ~jobs ids =
  let ppf = Format.std_formatter in
  Format.fprintf ppf
    "o2sched benchmark harness: CoreTime (HotOS 2009) reproduction@.";
  Format.fprintf ppf "machine under test: %a@.@." O2_simcore.Config.pp
    O2_simcore.Config.amd16;
  let ids = if ids = [] then O2_experiments.Registry.ids () else ids in
  match O2_experiments.Registry.run_ids ~quick ~jobs ppf ids with
  | Ok () -> 0
  | Error msg ->
      prerr_endline ("bench: " ^ msg);
      1

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)

open Bechamel
open Toolkit

let packing_items n =
  List.init n (fun i ->
      {
        Coretime.Cache_packing.key = i;
        bytes = 1024 + (i mod 7 * 4096);
        heat = float_of_int ((i * 2654435761) land 0xFFFF);
      })

(* E5: the paper claims the cache-packing algorithm is Θ(n log n); the
   per-element time should stay ~log n across sizes. *)
let test_packing n =
  let items = packing_items n in
  let used = Array.make 16 0 in
  Test.make
    ~name:(Printf.sprintf "cache_packing/pack n=%d" n)
    (Staged.stage (fun () ->
         ignore
           (Coretime.Cache_packing.pack ~budget:(1 lsl 20) ~used ~items)))

let test_lru =
  let lru = O2_simcore.Lru.create ~cap:8192 in
  let i = ref 0 in
  Test.make ~name:"lru/add+touch"
    (Staged.stage (fun () ->
         incr i;
         ignore (O2_simcore.Lru.add lru (!i land 0x3FFF));
         ignore (O2_simcore.Lru.touch lru ((!i * 7) land 0x3FFF))))

let test_read_hit =
  let machine = O2_simcore.Machine.create O2_simcore.Config.amd16 in
  let ext =
    O2_simcore.Memsys.alloc (O2_simcore.Machine.memory machine) ~name:"b"
      ~size:64
  in
  let addr = ext.O2_simcore.Memsys.base in
  ignore (O2_simcore.Machine.read machine ~core:0 ~now:0 ~addr ~len:8);
  Test.make ~name:"machine/read L1 hit"
    (Staged.stage (fun () ->
         ignore (O2_simcore.Machine.read machine ~core:0 ~now:0 ~addr ~len:8)))

let test_read_stream =
  let machine = O2_simcore.Machine.create O2_simcore.Config.amd16 in
  let ext =
    O2_simcore.Memsys.alloc (O2_simcore.Machine.memory machine) ~name:"s"
      ~size:(1 lsl 22)
  in
  let base = ext.O2_simcore.Memsys.base in
  let off = ref 0 in
  Test.make ~name:"machine/read 4KB stream (capacity misses)"
    (Staged.stage (fun () ->
         off := (!off + 4096) land ((1 lsl 22) - 1);
         ignore
           (O2_simcore.Machine.read machine ~core:0 ~now:0 ~addr:(base + !off)
              ~len:4096)))

(* The 8 MB baseline cell's dominant path: a 4 KB cluster whose lines
   another chip's core holds. One core on each of chips 1-3 first reads a
   1.5 MB slice; core 0 then cycles through all 4.5 MB, more than its L2
   and L3 together, so every line it reads misses locally and is found
   in a remote cache (the remote copies stay: reads share). *)
let test_read_remote =
  let machine = O2_simcore.Machine.create O2_simcore.Config.amd16 in
  let slice = 3 lsl 19 in
  let region = 3 * slice in
  let ext =
    O2_simcore.Memsys.alloc (O2_simcore.Machine.memory machine) ~name:"r"
      ~size:region
  in
  let base = ext.O2_simcore.Memsys.base in
  Array.iteri
    (fun i core ->
      for c = 0 to (slice / 4096) - 1 do
        ignore
          (O2_simcore.Machine.read machine ~core ~now:0
             ~addr:(base + (i * slice) + (c * 4096))
             ~len:4096)
      done)
    [| 4; 8; 12 |];
  let off = ref 0 in
  Test.make ~name:"machine/read 4KB cluster, remote holder"
    (Staged.stage (fun () ->
         off := (!off + 4096) mod region;
         ignore
           (O2_simcore.Machine.read machine ~core:0 ~now:0 ~addr:(base + !off)
              ~len:4096)))

(* One tiny end-to-end cell per figure: a full build + short simulation.
   These are the units the figure sweeps repeat at scale. *)
let figure_cell ~name ~policy ~oscillate =
  Test.make ~name
    (Staged.stage (fun () ->
         let machine = O2_simcore.Machine.create O2_simcore.Config.amd16 in
         let engine = O2_runtime.Engine.create machine in
         let ct = Coretime.create ~policy engine () in
         let spec = { O2_workload.Dir_workload.default_spec with dirs = 8 } in
         let w = O2_workload.Dir_workload.build ct spec in
         O2_workload.Dir_workload.spawn_threads w;
         if oscillate then
           O2_workload.Phase.oscillate_active engine w ~period:500_000
             ~divisor:16;
         O2_runtime.Engine.run ~until:2_000_000 engine))

let test_fig4a_cell_with =
  figure_cell ~name:"fig4a/cell with-coretime" ~policy:Coretime.Policy.default
    ~oscillate:false

let test_fig4a_cell_without =
  figure_cell ~name:"fig4a/cell without-coretime"
    ~policy:Coretime.Policy.baseline ~oscillate:false

let test_fig4b_cell =
  figure_cell ~name:"fig4b/cell oscillating" ~policy:Coretime.Policy.default
    ~oscillate:true

(* Price of one engine step stream: a compute+shared-line cell, built
   fresh per run and driven to quiescence on the serial engine. *)
let test_machine_step_serial =
  let cfg = O2_simcore.Config.amd16 in
  Test.make ~name:"machine/step serial cell"
    (Staged.stage (fun () ->
         let machine = O2_simcore.Machine.create cfg in
         let engine = O2_runtime.Engine.create machine in
         let mem = O2_simcore.Machine.memory machine in
         let shared = O2_simcore.Memsys.alloc_isolated mem ~name:"s" ~size:64 in
         for chip = 0 to cfg.O2_simcore.Config.chips - 1 do
           let core = chip * cfg.O2_simcore.Config.cores_per_chip in
           ignore
             (O2_runtime.Engine.spawn engine ~core ~name:"w" (fun () ->
                  for _ = 1 to 200 do
                    ignore
                      (O2_runtime.Api.read ~addr:shared.O2_simcore.Memsys.base
                         ~len:8);
                    O2_runtime.Api.compute 400
                  done))
         done;
         O2_runtime.Engine.run engine))

let test_lookup =
  let machine = O2_simcore.Machine.create O2_simcore.Config.amd16 in
  let engine = O2_runtime.Engine.create machine in
  let ct = Coretime.create ~policy:Coretime.Policy.baseline engine () in
  let spec = { O2_workload.Dir_workload.default_spec with dirs = 4 } in
  let w = O2_workload.Dir_workload.build ct spec in
  let fs = O2_workload.Dir_workload.fs w in
  let d = O2_workload.Dir_workload.directory w 0 in
  Test.make ~name:"fat/lookup_host (1000-entry dir)"
    (Staged.stage (fun () -> ignore (O2_fs.Fat.lookup_host fs d "f999.dat")))

(* The engine's innermost loop: one push + one pop against a heap kept at
   a realistic steady-state depth. Should sit at a handful of ns and
   allocate nothing. *)
let test_event_queue =
  let q : int O2_runtime.Event_queue.t = O2_runtime.Event_queue.create () in
  for i = 1 to 1024 do
    O2_runtime.Event_queue.push q ~time:i i
  done;
  let i = ref 1024 in
  Test.make ~name:"event_queue/push+pop_min (1k deep)"
    (Staged.stage (fun () ->
         incr i;
         O2_runtime.Event_queue.push q ~time:!i !i;
         ignore (O2_runtime.Event_queue.pop_min q)))

(* Fixed cost of farming a batch through the domain pool: bounds the
   sweep sizes below which --jobs cannot pay off. *)
let test_domain_pool =
  (* lazy so the worker domain only spawns when the bechamel suite runs *)
  let pool = lazy (O2_runtime.Domain_pool.create ~jobs:2) in
  let inputs = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  Test.make ~name:"domain_pool/run (8 trivial cells, jobs=2)"
    (Staged.stage (fun () ->
         ignore
           (O2_runtime.Domain_pool.run (Lazy.force pool) (fun x -> x + 1)
              inputs)))

(* Cost of the flight-recorder probe on the simulator hot path. With no
   subscriber the producer-side guard (Probe.active) short-circuits before
   the event is even constructed — this row should sit at ~1 ns. The twin
   row attaches a full Recorder, so it pays event construction plus the
   listener (ring push + metrics update). *)
let probe_mem_event i =
  O2_runtime.Probe.Mem
    { time = i; core = 0; tid = 0; kind = O2_runtime.Probe.Load; addr = 0; len = 8 }

let test_probe_inactive =
  let probe = O2_runtime.Probe.create () in
  let i = ref 0 in
  Test.make ~name:"probe/emit guarded, no recorder"
    (Staged.stage (fun () ->
         incr i;
         if O2_runtime.Probe.active probe then
           O2_runtime.Probe.emit probe (probe_mem_event !i)))

let test_probe_recorded =
  let machine = O2_simcore.Machine.create O2_simcore.Config.amd16 in
  let engine = O2_runtime.Engine.create machine in
  let _recorder = O2_obs.Recorder.attach engine in
  let probe = O2_runtime.Engine.probe engine in
  let i = ref 0 in
  Test.make ~name:"probe/emit with recorder subscribed"
    (Staged.stage (fun () ->
         incr i;
         if O2_runtime.Probe.active probe then
           O2_runtime.Probe.emit probe (probe_mem_event !i)))

(* The cache observatory's attached cost, as twin rows of read-hit and
   the capacity-miss stream: the observer pays on_access bookkeeping per
   sourced line, and the stream rows add the fill/eviction mirror (plus
   the heat tracker's address-to-object binary search). Compare against
   the unobserved rows above to price the observatory; suite_hotpath pins
   that the *detached* sites cost nothing. *)
let test_read_hit_observed =
  let machine = O2_simcore.Machine.create O2_simcore.Config.amd16 in
  let _occ = O2_obs.Occupancy.attach machine in
  let ext =
    O2_simcore.Memsys.alloc (O2_simcore.Machine.memory machine) ~name:"b"
      ~size:64
  in
  let addr = ext.O2_simcore.Memsys.base in
  ignore (O2_simcore.Machine.read machine ~core:0 ~now:0 ~addr ~len:8);
  Test.make ~name:"machine/read L1 hit, occupancy attached"
    (Staged.stage (fun () ->
         ignore (O2_simcore.Machine.read machine ~core:0 ~now:0 ~addr ~len:8)))

let test_read_stream_observed =
  let machine = O2_simcore.Machine.create O2_simcore.Config.amd16 in
  let engine = O2_runtime.Engine.create machine in
  let _occ = O2_obs.Occupancy.attach machine in
  let _heat = O2_obs.Heat.attach engine in
  let ext =
    O2_simcore.Memsys.alloc (O2_simcore.Machine.memory machine) ~name:"s"
      ~size:(1 lsl 22)
  in
  let base = ext.O2_simcore.Memsys.base in
  let off = ref 0 in
  Test.make ~name:"machine/read 4KB stream, occupancy+heat"
    (Staged.stage (fun () ->
         off := (!off + 4096) land ((1 lsl 22) - 1);
         ignore
           (O2_simcore.Machine.read machine ~core:0 ~now:0 ~addr:(base + !off)
              ~len:4096)))

(* Decision provenance on the emission side: one structured Decision
   record built, emitted and ring-buffered per run. This is the unit cost
   a monitor period pays per explained action when --explain is on. *)
let test_decision_emit =
  let machine = O2_simcore.Machine.create O2_simcore.Config.amd16 in
  let engine = O2_runtime.Engine.create machine in
  let _prov = O2_obs.Provenance.attach engine in
  let probe = O2_runtime.Engine.probe engine in
  let i = ref 0 in
  Test.make ~name:"probe/decision emit, provenance attached"
    (Staged.stage (fun () ->
         incr i;
         if O2_runtime.Probe.active probe then
           O2_runtime.Probe.emit probe
             (O2_runtime.Probe.Decision
                {
                  time = !i;
                  decision =
                    O2_runtime.Probe.Demoted
                      {
                        obj_base = 0x1000;
                        name = "o";
                        seq = 0;
                        core = 3;
                        idle_periods = 4;
                        threshold_periods = 4;
                      };
                })))

(* The PR-4 tentpole claim: one monitor period costs O(active set), not
   O(table). Both rows do identical per-period work — 64 objects operated
   on, then one step — and differ only in registered-table size, so equal
   times here mean the full-scan term is gone. Pre-index numbers for the
   same setup (recorded in bench_bechamel.txt): 10625.5 ns at n=1024,
   155657.7 ns at n=16384. *)
let test_rebalancer_step n =
  let machine = O2_simcore.Machine.create O2_simcore.Config.amd16 in
  let table =
    Coretime.Object_table.create ~cores:16 ~budget_per_core:(1 lsl 20)
  in
  let objs =
    Array.init n (fun i ->
        Coretime.Object_table.register table ~base:(i * 4096) ~size:4096
          ~name:"o" ())
  in
  let stride = n / 64 in
  for k = 0 to 63 do
    Coretime.Object_table.assign table objs.(k * stride) (k mod 16)
  done;
  let rb = Coretime.Rebalancer.create Coretime.Policy.default table machine in
  let period = Coretime.Policy.default.Coretime.Policy.rebalance_period in
  let now = ref 0 in
  Test.make
    ~name:(Printf.sprintf "rebalancer/step n=%d (64 active)" n)
    (Staged.stage (fun () ->
         for k = 0 to 63 do
           Coretime.Object_table.note_op table objs.(k * stride)
         done;
         now := !now + period;
         Coretime.Rebalancer.step rb ~now:!now))

(* The monitor's inner walk: visiting one core's assigned objects through
   the intrusive list. 16 K registered, 64 homed on the measured core —
   the row should price the 64 links, not the 16 K-entry table. *)
let test_iter_assigned =
  let table =
    Coretime.Object_table.create ~cores:16 ~budget_per_core:(1 lsl 20)
  in
  let objs =
    Array.init 16384 (fun i ->
        Coretime.Object_table.register table ~base:(i * 4096) ~size:4096
          ~name:"o" ())
  in
  for k = 0 to 63 do
    Coretime.Object_table.assign table objs.(k * 256) 3
  done;
  let acc = ref 0 in
  Test.make ~name:"object_table/iter_assigned (64 of 16384)"
    (Staged.stage (fun () ->
         Coretime.Object_table.iter_assigned table ~core:3 (fun o ->
             acc := !acc + o.Coretime.Object_table.size)))

(* The native backend's work-stealing deque: owner push+pop kept 1-deep
   (the common dispatch rhythm) and the thief's CAS path. Both must sit
   within a few ns of the event queue above and allocate nothing — the
   dummy-sentinel protocol exists so the steal loop never boxes. *)
let test_deque_push_pop =
  let q = O2_native.Deque.create ~dummy:(-1) () in
  let i = ref 0 in
  Test.make ~name:"deque/push+pop (owner)"
    (Staged.stage (fun () ->
         incr i;
         O2_native.Deque.push q !i;
         ignore (O2_native.Deque.pop q)))

let test_deque_steal =
  let q = O2_native.Deque.create ~dummy:(-1) () in
  let i = ref 0 in
  Test.make ~name:"deque/push+steal (thief CAS)"
    (Staged.stage (fun () ->
         incr i;
         O2_native.Deque.push q !i;
         ignore (O2_native.Deque.steal q)))

(* Native-vs-simulated price of one whole kv cell: the same
   Backend_kv program — 4 clients x 128 ops over 16 buckets — built,
   run to quiescence and torn down per run, on the native backend (one
   real domain: pool spawn + effect-handler dispatch + join) and on the
   simulated machine (engine events + cache model + virtual time). The
   ratio is the headline "what does simulation cost" number; the native
   row's floor is dominated by Domain spawn/join. *)
module Kv_cell (B : O2_runtime.Backend_intf.S) = struct
  module Kv = O2_native.Backend_kv.Make (B)

  let run_cell b =
    let kv = Kv.create b ~name:"kv" ~buckets:16 ~slots_per_bucket:32 () in
    for c = 0 to 3 do
      let prog =
        O2_native.Op_program.kv_program ~clients:4 ~client:c ~ops:128
          ~keyspace:64 ~seed:7
      in
      B.spawn b ~core:(c mod B.cores b) ~name:"kv-client" (fun () ->
          Array.iter
            (fun op ->
              ignore
                (match op with
                | O2_native.Op_program.Get k -> Kv.get kv ~key:k
                | O2_native.Op_program.Put (k, v) ->
                    if Kv.put kv ~key:k ~value:v then 1 else 0
                | O2_native.Op_program.Delete k ->
                    if Kv.delete kv ~key:k then 1 else 0))
            prog)
    done;
    B.run b
end

module Native_kv_cell = Kv_cell (O2_native.Native_backend)
module Sim_kv_cell = Kv_cell (O2_native.Sim_backend)

let test_kv_cell_native =
  Test.make ~name:"native/kv cell (512 ops, 1 domain)"
    (Staged.stage (fun () ->
         let b = O2_native.Native_backend.create ~domains:1 () in
         Fun.protect
           ~finally:(fun () -> O2_native.Native_backend.shutdown b)
           (fun () -> Native_kv_cell.run_cell b)))

let test_kv_cell_sim =
  Test.make ~name:"sim/kv cell (512 ops, simulated machine)"
    (Staged.stage (fun () ->
         let b = O2_native.Sim_backend.create () in
         Sim_kv_cell.run_cell b))

(* What the flight recorder costs. The metrics-only row prices exactly
   what with_op adds per op when telemetry is attached without a ring:
   two CLOCK_MONOTONIC reads plus log2-bucket accumulator updates — the
   overhead left inside the throughput measurement when native_exp runs
   with --metrics. The cell rows price the whole thing end to end
   against the telemetry-off cell above: metrics-only (ring_capacity 0)
   and full tracing (every op's span events in the ring). A fresh
   Telemetry per run keeps the ring in its append regime rather than
   measuring the saturated drop path. *)
let test_tel_metrics_op =
  let tel = O2_runtime.Telemetry.create ~ring_capacity:0 ~sample:0 ~domains:1 () in
  let s = O2_runtime.Telemetry.sink tel 0 in
  Test.make ~name:"telemetry/per-op metrics (2 clock reads + accs)"
    (Staged.stage (fun () ->
         let t0 = O2_runtime.Telemetry.now_ns () in
         let t1 = O2_runtime.Telemetry.now_ns () in
         O2_runtime.Telemetry.observe_home s (t1 - t0);
         O2_runtime.Telemetry.observe_exec s (t1 - t0)))

let test_kv_cell_native_metrics =
  Test.make ~name:"native/kv cell (512 ops, telemetry metrics)"
    (Staged.stage (fun () ->
         let tel =
           O2_runtime.Telemetry.create ~ring_capacity:0 ~sample:0 ~domains:1 ()
         in
         let b = O2_native.Native_backend.create ~telemetry:tel ~domains:1 () in
         Fun.protect
           ~finally:(fun () -> O2_native.Native_backend.shutdown b)
           (fun () -> Native_kv_cell.run_cell b)))

let test_kv_cell_native_traced =
  Test.make ~name:"native/kv cell (512 ops, telemetry ring, sample 1)"
    (Staged.stage (fun () ->
         let tel =
           O2_runtime.Telemetry.create ~ring_capacity:(1 lsl 14) ~sample:1
             ~domains:1 ()
         in
         let b = O2_native.Native_backend.create ~telemetry:tel ~domains:1 () in
         Fun.protect
           ~finally:(fun () -> O2_native.Native_backend.shutdown b)
           (fun () -> Native_kv_cell.run_cell b)))

(* Full o2staticcheck run over the repo's build tree: .cmt discovery,
   parsing, and all four typedtree passes. Prices the static stage that
   @lint-source adds to the gate; run from the repo root after a build. *)
let test_staticcheck =
  Test.make ~name:"staticcheck/full tree (load + 4 passes)"
    (Staged.stage (fun () ->
         match O2_staticcheck.Staticcheck.run ~root:"." () with
         | Ok r -> assert (r.O2_staticcheck.Staticcheck.findings = [])
         | Error _ -> ()))

(* One quota does not fit all rows: with the old single
   limit=2000/quota=1s config the sub-µs rows collected so few distinct
   iteration counts that the OLS fit was garbage (probe/emit reported
   r2=-191) and the multi-ms rows got a handful of samples (cache_packing
   n=16384 at r2=0.401). Each row is therefore classed by its expected
   scale: [`Fast] (sub-µs kernels — many samples, long quota, so the fit
   sees a wide spread of iteration counts), [`Mid] (µs-scale, the old
   config was fine), [`Slow] (multi-ms cells — a longer quota buys enough
   samples for a stable slope). *)
let bechamel_tests =
  [
    (`Mid, test_packing 256);
    (`Mid, test_packing 1024);
    (`Mid, test_packing 4096);
    (`Slow, test_packing 16384);
    (`Fast, test_lru);
    (`Fast, test_read_hit);
    (`Mid, test_read_stream);
    (`Mid, test_read_remote);
    (`Slow, test_machine_step_serial);
    (`Mid, test_lookup);
    (`Fast, test_event_queue);
    (`Fast, test_deque_push_pop);
    (`Fast, test_deque_steal);
    (`Slow, test_kv_cell_native);
    (`Slow, test_kv_cell_sim);
    (`Fast, test_tel_metrics_op);
    (`Slow, test_kv_cell_native_metrics);
    (`Slow, test_kv_cell_native_traced);
    (`Fast, test_rebalancer_step 1024);
    (`Fast, test_rebalancer_step 16384);
    (`Fast, test_iter_assigned);
    (`Mid, test_domain_pool);
    (`Fast, test_probe_inactive);
    (`Fast, test_probe_recorded);
    (`Fast, test_read_hit_observed);
    (`Mid, test_read_stream_observed);
    (`Fast, test_decision_emit);
    (`Slow, test_staticcheck);
    (`Slow, test_fig4a_cell_with);
    (`Slow, test_fig4a_cell_without);
    (`Slow, test_fig4b_cell);
  ]

let run_bechamel () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg_fast = Benchmark.cfg ~limit:10_000 ~quota:(Time.second 3.0) ~kde:None () in
  let cfg_mid = Benchmark.cfg ~limit:3000 ~quota:(Time.second 2.0) ~kde:None () in
  let cfg_slow = Benchmark.cfg ~limit:3000 ~quota:(Time.second 5.0) ~kde:None () in
  print_endline "bechamel microbenchmarks (monotonic clock, ns/run):";
  List.iter
    (fun (scale, test) ->
      let cfg =
        match scale with
        | `Fast -> cfg_fast
        | `Mid -> cfg_mid
        | `Slow -> cfg_slow
      in
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let result = Analyze.one ols Instance.monotonic_clock raw in
          let estimate =
            match Analyze.OLS.estimates result with
            | Some (e :: _) -> e
            | Some [] | None -> nan
          in
          let r2 =
            match Analyze.OLS.r_square result with Some r -> r | None -> nan
          in
          Printf.printf "  %-42s %12.1f ns/run (r2=%.3f)\n%!"
            (Test.Elt.name elt) estimate r2)
        (Test.elements test))
    bechamel_tests;
  print_endline "";
  print_endline
    "cache_packing scaling check (E5): time/run should grow as n log n,";
  print_endline
    "i.e. roughly x4.4 per x4 in n across the four cache_packing rows.";
  0

(* ------------------------------------------------------------------ *)
(* Figure 4 wall-clock: the harness-parallelism headline number         *)

(* Times the quick Figure 4(a) sweep at jobs=1 and jobs=N and checks the
   row lists are bit-identical (the determinism contract of
   Harness.run_cells). Written as JSON so CI can trend it. *)
let run_fig4_json ~jobs path =
  let sweep jobs =
    let t0 = Unix.gettimeofday () in
    let rows =
      O2_experiments.Figure4.sweep ~jobs ~quick:true ~oscillation:None ()
    in
    (rows, Unix.gettimeofday () -. t0)
  in
  let rows_seq, seconds_seq = sweep 1 in
  let rows_par, seconds_par = sweep jobs in
  let identical = rows_seq = rows_par in
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
           (O2_runtime.Domain_pool.default_jobs ());
         Printf.sprintf "  \"seconds_jobs1\": %.3f," seconds_seq;
         Printf.sprintf "  \"jobs\": %d," jobs;
         Printf.sprintf "  \"seconds_jobsN\": %.3f," seconds_par;
         Printf.sprintf "  \"speedup\": %.2f,"
           (if seconds_par > 0.0 then seconds_seq /. seconds_par else nan);
         Printf.sprintf "  \"rows_bit_identical\": %b," identical;
         "  \"rows\": [";
       ]
      @ [ String.concat ",\n" (List.map row_json rows_seq) ]
      @ [ "  ]"; "}"; "" ])
  in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf "fig4a quick sweep: %.2fs at jobs=1, %.2fs at jobs=%d (%.2fx)\n"
    seconds_seq seconds_par jobs (seconds_seq /. seconds_par);
  Printf.printf "rows bit-identical across jobs: %b\n" identical;
  Printf.printf "wrote %s\n" path;
  if identical then 0 else 1

(* ------------------------------------------------------------------ *)
(* Native backend wall-clock: oracle verdicts + ops/sec ladder as JSON  *)

let run_native_json ~quick path =
  let ok =
    O2_experiments.Native_exp.run_cli ~quick ~domains:2 ~json:(Some path)
      ~metrics:false ~trace:None ~trace_sample:1 Format.std_formatter
  in
  Format.pp_print_flush Format.std_formatter ();
  if ok then 0 else 1

let usage () =
  prerr_endline
    "usage: bench [--quick] [--jobs N] [--bechamel | --fig4-json [FILE] | \
     --native-json [FILE]] [EXPERIMENT-ID...]";
  2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = ref false in
  let bech = ref false in
  let fig4_json = ref None in
  let native_json = ref None in
  let jobs = ref (O2_runtime.Domain_pool.default_jobs ()) in
  let ids = ref [] in
  let bad = ref false in
  let rec parse = function
    | [] -> ()
    | ("--quick" | "-q") :: rest ->
        quick := true;
        parse rest
    | "--bechamel" :: rest ->
        bech := true;
        parse rest
    | "--fig4-json" :: path :: rest
      when String.length path > 0 && path.[0] <> '-' ->
        fig4_json := Some path;
        parse rest
    | "--fig4-json" :: rest ->
        fig4_json := Some "BENCH_fig4.json";
        parse rest
    | "--native-json" :: path :: rest
      when String.length path > 0 && path.[0] <> '-' ->
        native_json := Some path;
        parse rest
    | "--native-json" :: rest ->
        native_json := Some "BENCH_native.json";
        parse rest
    | ("--jobs" | "-j") :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := n;
            parse rest
        | _ ->
            bad := true)
    | a :: rest when String.length a > 0 && a.[0] = '-' ->
        prerr_endline ("bench: unknown option " ^ a);
        bad := true;
        ignore rest
    | a :: rest ->
        ids := !ids @ [ a ];
        parse rest
  in
  parse args;
  if !bad then exit (usage ());
  exit
    (if !bech then run_bechamel ()
     else
       match (!fig4_json, !native_json) with
       | Some path, _ ->
           (* at least 2 so the parallel leg exercises real domains even on
              a single-core machine *)
           run_fig4_json ~jobs:(max 2 !jobs) path
       | None, Some path -> run_native_json ~quick:!quick path
       | None, None -> experiments ~quick:!quick ~jobs:!jobs !ids)
