(* sim_fig4a: the Figure 4(a) cells at 256 KB (fits in cache) and 8 MB
   (beyond one L3), each without and with CoreTime, on the amd16 model,
   one looping lookup thread per simulated core. Cells
   run one after another on the serial engine. The benchmark builds each
   cell from the public constructors (the same steps as Harness.run) so it
   can time set-up and the engine separately, and advances the engine in
   fixed chunks of simulated time, timing each chunk. *)

open O2_simcore
module Engine = O2_runtime.Engine
module Probe = O2_runtime.Probe
module DW = O2_workload.Dir_workload
module Rb = Coretime.Rebalancer
module R = Report

type cell = { label : string; kb : int; ct : bool }

let cells =
  [
    { label = "256k_base"; kb = 256; ct = false };
    { label = "256k_ct"; kb = 256; ct = true };
    { label = "8m_base"; kb = 8192; ct = false };
    { label = "8m_ct"; kb = 8192; ct = true };
  ]

let chunk_cycles = 80_000

(* Figure4.sweep's quick horizon, where the modelled values equal
   BENCH_fig4.json's rows. A shorter one would leave the 8 MB CoreTime
   cell cold (at a quarter of it CoreTime is 3x slower than the
   baseline), so the benchmark runs the quick horizon; the self-test's
   [Tiny] is a sixteenth of it. *)
type horizon = Quick | Tiny

let horizons h kb =
  let warmup = O2_experiments.Harness.scaled ~quick:true (40_000_000 + (kb * 2500)) in
  let measure = O2_experiments.Harness.scaled ~quick:true (20_000_000 * 2) in
  let div = match h with Quick -> 1 | Tiny -> 16 in
  (warmup / div, measure / div)

(* Host calibration (see Calib): the kernel runs before every
   [calib_every] chunks and each chunk's time is scaled by its factor; a
   pass's build times are scaled by the pass's median factor. *)
let calib = lazy (Calib.sim ())
let calib_every = 8
let host_exponent = 1.5

type built = {
  machine : Machine.t;
  engine : Engine.t;
  coretime : Coretime.t;
  workload : DW.t;
  setup_ns : int;
}

let build ~seed c =
  let t0 = Clock.now_ns () in
  let machine = Machine.create Config.amd16 in
  let engine = Engine.create machine in
  let policy =
    if c.ct then Coretime.Policy.default else Coretime.Policy.baseline
  in
  let ct = Coretime.create ~policy engine () in
  let w = DW.build ct (DW.spec_for_data_kb ~seed ~kb:c.kb ()) in
  { machine; engine; coretime = ct; workload = w; setup_ns = Clock.now_ns () - t0 }

(* The counter fields Machine.read/Machine.write maintain: what a replay
   of the access stream must reproduce. *)
let mem_fields (c : Counters.t) =
  Counters.
    [|
      c.loads;
      c.stores;
      c.l1_hits;
      c.l2_hits;
      c.l3_hits;
      c.remote_hits;
      c.dram_loads;
      c.invalidations_sent;
    |]

let lookups_done m =
  Array.fold_left
    (fun acc c -> acc + c.Counters.ops_completed)
    0 (Machine.all_counters m)

type outcome = {
  cell : cell;
  setup_ns : int;
  run_ns : int;  (** Host ns inside Engine.run, warmup and window. *)
  cycles : int;  (** Simulated cycles run: warmup + window. *)
  lookups : int;  (** Lookups completed over the whole cell. *)
  events : int;
  kres : float;  (** Modelled kres/s over the window (Harness.point's). *)
  w : Counters.t;  (** The window's counters, summed over cores. *)
  promotions : int;  (** Over the whole cell: promotion settles in warmup. *)
  migrations : int;
  rb_periods : int;
  rb_moves : int;
  rb_demotions : int;
  final_mem : int array array;  (** Per core, at the end of the cell. *)
  gc_minor : int;
  gc_major : int;
}

(* Host ns at the quiet host's speed and lookups completed per chunk, in
   run order, and the calibration factors the chunks were scaled by. *)
type chunks = { ns : Stats.Ibuf.t; ops : Stats.Ibuf.t; host : Stats.Fbuf.t }

let new_chunks () =
  { ns = Stats.Ibuf.create 2048; ops = Stats.Ibuf.create 2048; host = Stats.Fbuf.create () }

(* Run the engine from [from] to [until] in chunks, timing each. *)
let advance b ~from ~until ~run_ns ~chunks =
  let t = ref from in
  while !t < until do
    if chunks.ns.Stats.Ibuf.n mod calib_every = 0 then
      Stats.Fbuf.add chunks.host (Calib.factor (Lazy.force calib));
    let host = chunks.host.Stats.Fbuf.a.(chunks.host.Stats.Fbuf.n - 1) in
    let next = min until (!t + chunk_cycles) in
    let ops0 = lookups_done b.machine in
    let t0 = Clock.now_ns () in
    Engine.run ~until:next b.engine;
    let dt = Clock.now_ns () - t0 in
    run_ns := !run_ns + dt;
    let d = lookups_done b.machine - ops0 in
    Stats.Ibuf.add chunks.ns (int_of_float (Calib.scale ~exponent:host_exponent host dt));
    Stats.Ibuf.add chunks.ops d;
    t := next
  done

let run_cell ~horizon ~chunks b c =
  let warmup, measure = horizons horizon c.kb in
  let run_ns = ref 0 in
  let gc0 = Gc.quick_stat () in
  DW.spawn_threads b.workload;
  advance b ~from:0 ~until:warmup ~run_ns ~chunks;
  let counters = Machine.all_counters b.machine in
  Engine.finalize_idle b.engine;
  let snap = Array.map Counters.copy counters in
  let st = Coretime.stats b.coretime in
  let rb = Rb.stats (Coretime.rebalancer b.coretime) in
  let m0 = st.Coretime.op_migrations in
  let per0 = rb.Rb.periods and mv0 = rb.Rb.moves and dm0 = rb.Rb.demotions in
  advance b ~from:warmup ~until:(warmup + measure) ~run_ns ~chunks;
  Engine.finalize_idle b.engine;
  let gc1 = Gc.quick_stat () in
  let w = Counters.create () in
  Array.iteri
    (fun i c -> Counters.add_into w (Counters.diff c ~since:snap.(i)))
    counters;
  let seconds = float_of_int measure /. (Config.amd16.Config.ghz *. 1e9) in
  {
    cell = c;
    setup_ns = b.setup_ns;
    run_ns = !run_ns;
    cycles = warmup + measure;
    lookups = lookups_done b.machine;
    events = Engine.events_processed b.engine;
    kres = float_of_int w.Counters.ops_completed /. seconds /. 1000.0;
    w;
    promotions = st.Coretime.promotions;
    migrations = st.Coretime.op_migrations - m0;
    rb_periods = rb.Rb.periods - per0;
    rb_moves = rb.Rb.moves - mv0;
    rb_demotions = rb.Rb.demotions - dm0;
    final_mem = Array.map mem_fields counters;
    gc_minor = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    gc_major = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

(* The access stream the machine saw, in call order: every Probe Mem
   event plus the lock-word write each Lock_acquired / Lock_released
   announces (Probe.Mem omits lock traffic). Kept as three flat int
   buffers; [meta] packs core, kind and length. *)
type stream = { time : Stats.Ibuf.t; addr : Stats.Ibuf.t; meta : Stats.Ibuf.t }

let record_stream engine =
  let s =
    {
      time = Stats.Ibuf.create (1 lsl 20);
      addr = Stats.Ibuf.create (1 lsl 20);
      meta = Stats.Ibuf.create (1 lsl 20);
    }
  in
  let push ~time ~core ~store ~addr ~len =
    Stats.Ibuf.add s.time time;
    Stats.Ibuf.add s.addr addr;
    Stats.Ibuf.add s.meta ((len lsl 9) lor (core lsl 1) lor if store then 1 else 0)
  in
  Probe.subscribe (Engine.probe engine) (function
    | Probe.Mem { time; core; kind; addr; len; _ } ->
        push ~time ~core ~store:(kind = Probe.Store) ~addr ~len
    | Probe.Lock_acquired { time; core; lock; _ }
    | Probe.Lock_released { time; core; lock; _ } ->
        push ~time ~core ~store:true ~addr:lock.Probe.lock_addr ~len:8
    | _ -> ());
  s

(* Replay the stream on a fresh machine. [Some ns_per_access] only when
   the replay reproduces the traced cell's per-core memory counters
   exactly; otherwise the stream is not the machine's real input. *)
let replay s ~final_mem =
  let m = Machine.create Config.amd16 in
  let n = s.time.Stats.Ibuf.n in
  let time = s.time.Stats.Ibuf.a
  and addr = s.addr.Stats.Ibuf.a
  and meta = s.meta.Stats.Ibuf.a in
  let t0 = Clock.now_ns () in
  for i = 0 to n - 1 do
    let x = meta.(i) in
    let core = (x lsr 1) land 0xff and len = x lsr 9 in
    if x land 1 = 1 then
      ignore (Machine.write m ~core ~now:time.(i) ~addr:addr.(i) ~len)
    else ignore (Machine.read m ~core ~now:time.(i) ~addr:addr.(i) ~len)
  done;
  let ns = Clock.now_ns () - t0 in
  let same =
    Array.for_all Fun.id
      (Array.mapi
         (fun core f -> mem_fields (Machine.counters m core) = f)
         final_mem)
  in
  if same && n > 0 then Ok (float_of_int ns /. float_of_int n, n)
  else Error (Printf.sprintf "replay of %d accesses did not reproduce the counters" n)

(* One pass over the four cells. The heap is compacted before each
   build and again before each run, so neither inherits the previous
   cell's garbage. *)
let pass ~seed ~horizon ~traced ~spans =
  let pass_start = Clock.now_ns () in
  let chunks = new_chunks () in
  let results =
    List.mapi
      (fun op c ->
        Gc.compact ();
        let b = build ~seed c in
        Gc.compact ();
        let stream = if traced then Some (record_stream b.engine) else None in
        let t_run = Clock.now_ns () in
        let o = run_cell ~horizon ~chunks b c in
        let t_end = Clock.now_ns () in
        let replayed =
          Option.map (fun s -> replay s ~final_mem:o.final_mem) stream
        in
        (match spans with
        | Some sp ->
            let root =
              R.Spans.add sp ~name:("cell " ^ c.label) ~start:(t_run - b.setup_ns)
                ~stop:(Clock.now_ns ()) ~parent:(-1) ~op
            in
            ignore
              (R.Spans.add sp ~name:"setup" ~start:(t_run - b.setup_ns)
                 ~stop:t_run ~parent:root ~op);
            ignore
              (R.Spans.add sp
                 ~name:(if traced then "run (recording)" else "run")
                 ~start:t_run ~stop:t_end ~parent:root ~op);
            if traced then
              ignore
                (R.Spans.add sp ~name:"replay" ~start:t_end
                   ~stop:(Clock.now_ns ()) ~parent:root ~op)
        | None -> ());
        (o, replayed))
      cells
  in
  (results, Clock.now_ns () - pass_start, chunks)

(* Passes repeat identical simulated work (one seed, fresh machines,
   checked bit-identical), so chunk j of every pass is the same unit of
   work. Interference from the host only ever adds time, so the fastest
   run of each chunk across passes estimates its cost: the cost of one
   pass is the sum of those minima. *)
let fastest (passes : chunks list) =
  match passes with
  | [] -> ([||], [||])
  | first :: _ ->
      let k = List.fold_left (fun k c -> min k c.ns.Stats.Ibuf.n) max_int passes in
      let best =
        Array.init k (fun j ->
            List.fold_left (fun m c -> min m c.ns.Stats.Ibuf.a.(j)) max_int passes)
      in
      (best, Array.sub first.ops.Stats.Ibuf.a 0 k)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let find label os = List.find (fun (o : outcome) -> o.cell.label = label) os
let ratio a b = float_of_int a /. float_of_int (max 1 b)

(* The Figure 4(a) values this benchmark models: kres/s per cell and the
   with/without CoreTime speedups. Deterministic for a seed. *)
let model_metrics os =
  let k l = (find l os).kres in
  List.map (fun (o : outcome) -> R.metric ("sim.kres." ^ o.cell.label) "kres/s" o.kres) os
  @ [
      R.metric "sim.ct_speedup_256k" "x" (k "256k_ct" /. k "256k_base");
      R.metric "sim.ct_speedup_8m" "x" (k "8m_ct" /. k "8m_base");
    ]

let layer_metrics os =
  List.concat_map
    (fun (o : outcome) ->
      let l = o.cell.label and w = o.w in
      let ops = w.Counters.ops_completed in
      let cyc = w.Counters.busy_cycles + w.Counters.spin_cycles + w.Counters.idle_cycles in
      [
        R.metric ("engine.events." ^ l) "count" (float_of_int o.events);
        R.metric ("engine.host_ns_per_event." ^ l) "ns" (ratio o.run_ns o.events);
        R.metric ("machine.accesses_per_op." ^ l) "count"
          (ratio (w.Counters.loads + w.Counters.stores) ops);
        R.metric ("machine.l1_share." ^ l) "ratio" (ratio w.Counters.l1_hits w.Counters.loads);
        R.metric ("machine.l2_share." ^ l) "ratio" (ratio w.Counters.l2_hits w.Counters.loads);
        R.metric ("machine.l3_share." ^ l) "ratio" (ratio w.Counters.l3_hits w.Counters.loads);
        R.metric ("machine.remote_per_op." ^ l) "count" (ratio w.Counters.remote_hits ops);
        R.metric ("machine.dram_per_op." ^ l) "count" (ratio w.Counters.dram_loads ops);
        R.metric ("cycles.busy_share." ^ l) "ratio" (ratio w.Counters.busy_cycles cyc);
        R.metric ("cycles.spin_share." ^ l) "ratio" (ratio w.Counters.spin_cycles cyc);
        R.metric ("cycles.idle_share." ^ l) "ratio" (ratio w.Counters.idle_cycles cyc);
      ]
      @
      if o.cell.ct then
        [
          R.metric ("coretime.migrations_per_op." ^ l) "count" (ratio o.migrations ops);
          R.metric ("coretime.promotions." ^ l) "count" (float_of_int o.promotions);
          R.metric ("rebalancer.periods." ^ l) "count" (float_of_int o.rb_periods);
          R.metric ("rebalancer.moves." ^ l) "count" (float_of_int o.rb_moves);
          R.metric ("rebalancer.demotions." ^ l) "count" (float_of_int o.rb_demotions);
        ]
      else [])
    os

let mcyc_per_s os =
  float_of_int (sum (fun o -> o.cycles) os) /. 1e6
  /. (float_of_int (sum (fun o -> o.run_ns) os) /. 1e9)

let ops_per_s os =
  float_of_int (sum (fun o -> o.lookups) os)
  /. (float_of_int (sum (fun o -> o.run_ns) os) /. 1e9)

(* Names the per-layer table reports for the simulator; the native
   workloads print each of them as not applicable. *)
let layer_names () =
  let fake =
    List.map
      (fun c ->
        {
          cell = c;
          setup_ns = 0;
          run_ns = 0;
          cycles = 0;
          lookups = 0;
          events = 0;
          kres = 0.0;
          w = Counters.create ();
          promotions = 0;
          migrations = 0;
          rb_periods = 0;
          rb_moves = 0;
          rb_demotions = 0;
          final_mem = [||];
          gc_minor = 0;
          gc_major = 0;
        })
      cells
  in
  List.map
    (fun m -> (m.R.name, m.R.unit_))
    (layer_metrics fake @ model_metrics fake)
  @ List.map (fun c -> ("machine.host_ns_per_access." ^ c.label, "ns")) cells
  @ [ ("sim.mcyc_per_s", "Mcyc/s"); ("setup.sim_build_s", "s") ]

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : R.metric list;  (** This mode's JSON metrics. *)
  info : R.metric list;  (** Printed beside them for a reader. *)
}

(* Every pass of one seed must produce bit-identical modelled values. *)
let deterministic passes =
  match passes with
  | [] -> true
  | first :: rest ->
      List.for_all
        (fun p ->
          List.for_all2
            (fun (a : outcome) (b : outcome) -> a.kres = b.kres && a.w = b.w)
            first p)
        rest

(* Trace off: passes over the four cells until [seconds] is spent, at
   least one. *)
let run_e2e ~seed ~seconds ~tiny =
  let horizon = if tiny then Tiny else Quick in
  let t0 = Clock.now_ns () in
  let chunk_runs = ref [] in
  let passes = ref [] and attempted = ref 0 and failed = ref 0 in
  let last = ref 0.0 and pass_s = Stats.Fbuf.create () in
  while
    !failed = 0
    && (!passes = [] || Clock.seconds_since t0 +. !last <= seconds)
  do
    let p0 = Clock.now_ns () in
    (match pass ~seed ~horizon ~traced:false ~spans:None with
    | results, _, chunks ->
        attempted := !attempted + List.length cells;
        passes := List.map fst results :: !passes;
        chunk_runs := chunks :: !chunk_runs
    | exception e ->
        Printf.printf "  cell raised: %s\n" (Printexc.to_string e);
        attempted := !attempted + List.length cells;
        failed := !failed + List.length cells);
    last := Clock.seconds_since p0;
    Stats.Fbuf.add pass_s !last
  done;
  let passes = List.rev !passes in
  let det = deterministic passes in
  if not det then failed := !failed + List.length cells;
  let med f = Stats.median (Array.of_list (List.map f passes)) in
  let setup_s =
    Stats.median
      (Array.of_list
         (List.map2
            (fun os (c : chunks) ->
              Calib.scale ~exponent:host_exponent
                (Stats.Fbuf.median c.host)
                (sum (fun o -> o.setup_ns) os)
              /. 1e9)
            passes (List.rev !chunk_runs)))
  in
  let best, ops = fastest !chunk_runs in
  let best_ns = Array.fold_left ( + ) 0 best and lookups = Array.fold_left ( + ) 0 ops in
  let per_op = Stats.Ibuf.create (Array.length best) in
  Array.iteri (fun j ns -> if ops.(j) > 0 then Stats.Ibuf.add per_op (ns / ops.(j))) best;
  let metrics =
    match Stats.Ibuf.percentiles per_op [ 50.0; 99.0 ] with
    | [ p50; p99 ] when passes <> [] ->
        [
          R.metric "setup_s" "s" setup_s;
          R.metric "ops_per_s" "1/s" (float_of_int lookups /. (float_of_int best_ns /. 1e9));
          R.metric "op_p50_ns" "ns" p50;
          R.metric "op_p99_ns" "ns" p99;
        ]
    | _ -> []
  in
  let info =
    match passes with
    | [] -> []
    | first :: _ ->
        let k l = (find l first).kres in
        [
          R.metric "passes" "count" (float_of_int (List.length passes));
          R.metric "host_factor.median" "ratio"
            (Stats.median
               (Array.concat (List.map (fun c -> Stats.Fbuf.to_array c.host) !chunk_runs)));
          R.metric "setup_s.raw" "s"
            (med (fun os -> float_of_int (sum (fun o -> o.setup_ns) os) /. 1e9));
          R.metric "pass_s.median" "s" (Stats.Fbuf.median pass_s);
          R.metric "latency_samples" "count" (float_of_int per_op.Stats.Ibuf.n);
          R.metric "ops_per_s.median_pass" "1/s" (med ops_per_s);
          R.metric "sim_mcyc_per_s" "Mcyc/s"
            (float_of_int (sum (fun o -> o.cycles) first) /. 1e6 /. (float_of_int best_ns /. 1e9));
          R.metric "sim_kres_ct_256k" "kres/s" (k "256k_ct");
          R.metric "sim_kres_ct_8m" "kres/s" (k "8m_ct");
          R.metric "sim_ct_speedup_256k" "x" (k "256k_ct" /. k "256k_base");
          R.metric "sim_ct_speedup_8m" "x" (k "8m_ct" /. k "8m_base");
          R.metric "sim_kres_base_256k" "kres/s" (k "256k_base");
          R.metric "sim_kres_base_8m" "kres/s" (k "8m_base");
          R.metric "failed_op_share" "ratio" (ratio !failed !attempted);
        ]
  in
  {
    correct = !failed = 0 && det && passes <> [];
    attempted = max 1 !attempted;
    failed = !failed;
    metrics;
    info;
  }

(* Trace on: one plain pass (the reference for the overhead) and one
   pass that records every cell's access stream, then replays it. *)
let run_traced ~seed ~tiny ~spans =
  let horizon = if tiny then Tiny else Quick in
  let plain, plain_ns, _ = pass ~seed ~horizon ~traced:false ~spans:(Some spans) in
  let traced, traced_ns, _ = pass ~seed ~horizon ~traced:true ~spans:(Some spans) in
  let os = List.map fst plain in
  let run_ns l = sum (fun ((o : outcome), _) -> o.run_ns) l in
  let lookups = sum (fun o -> o.lookups) os in
  let agree =
    List.for_all2 (fun (a, _) (b, _) -> a.kres = b.kres && a.w = b.w) plain traced
  in
  let replays =
    List.map
      (fun ((o : outcome), r) ->
        let name = "machine.host_ns_per_access." ^ o.cell.label in
        match r with
        | Some (Ok (ns, _)) -> R.metric name "ns" ns
        | Some (Error e) -> R.absent name "ns" e
        | None -> R.absent name "ns" "no stream recorded")
      traced
  in
  let failed = if agree then 0 else List.length cells in
  let per_mop n = float_of_int n /. (float_of_int lookups /. 1e6) in
  let metrics =
    layer_metrics os @ model_metrics os @ replays
    @ [
        R.metric "sim.mcyc_per_s" "Mcyc/s" (mcyc_per_s os);
        R.metric "setup.sim_build_s" "s"
          (float_of_int (sum (fun o -> o.setup_ns) os) /. 1e9);
        R.metric "gc.minor_per_mop" "count"
          (per_mop (sum (fun o -> o.gc_minor) os));
        R.metric "gc.major_per_mop" "count"
          (per_mop (sum (fun o -> o.gc_major) os));
        R.metric "trace.overhead_pct" "%"
          (100.0 *. ((float_of_int (run_ns traced) /. float_of_int (run_ns plain)) -. 1.0));
        R.metric "bench.failed_op_share" "ratio"
          (ratio failed (2 * List.length cells));
      ]
  in
  {
    correct = agree;
    attempted = 2 * List.length cells;
    failed;
    metrics;
    info =
      [
        R.metric "pass_s.plain" "s" (float_of_int plain_ns /. 1e9);
        R.metric "pass_s.traced" "s" (float_of_int traced_ns /. 1e9);
      ];
  }
