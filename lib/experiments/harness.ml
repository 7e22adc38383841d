open O2_simcore
open O2_workload

type oscillation = { period : int; divisor : int }

type obs = {
  metrics : bool;
  trace : string option;
  trace_sample : int;
  occupancy : bool;
  occupancy_interval : int;
  heat : bool;
  heat_top : int;
  explain : bool;
}

let no_obs =
  {
    metrics = false;
    trace = None;
    trace_sample = 1;
    occupancy = false;
    occupancy_interval = 200_000;
    heat = false;
    heat_top = 10;
    explain = false;
  }

let validate_obs o =
  if o.trace_sample <= 0 then
    Error
      (Printf.sprintf
         "--trace-sample must be >= 1 (got %d): 1 keeps every op span, N \
          keeps 1-in-N; monitor, decision, steal and park records are \
          always kept"
         o.trace_sample)
  else if o.occupancy_interval <= 0 then
    Error
      (Printf.sprintf
         "--occupancy-interval must be >= 1 cycle (got %d)"
         o.occupancy_interval)
  else if o.heat_top <= 0 then
    Error (Printf.sprintf "--heat-top must be >= 1 (got %d)" o.heat_top)
  else Ok ()

type point = {
  data_kb : int;
  kres_per_sec : float;
  ops : int;
  promotions : int;
  op_migrations : int;
  rebalancer_moves : int;
  rebalancer_demotions : int;
  dram_loads : int;
  remote_hits : int;
  spin_cycles : int;
  avg_busy : float;
  metrics : O2_obs.Metrics.t option;
}

type setup = {
  cfg : Config.t;
  policy : Coretime.Policy.t;
  spec : Dir_workload.spec;
  warmup : int;
  measure : int;
  oscillation : oscillation option;
  threads_per_core : int;
  placement : int array option;
  collect_metrics : bool;
}

let setup ?(cfg = Config.amd16) ?(policy = Coretime.Policy.default)
    ?(warmup = 40_000_000) ?(measure = 40_000_000) ?oscillation
    ?(threads_per_core = 1) ?placement ?(collect_metrics = false) spec =
  {
    cfg;
    policy;
    spec;
    warmup;
    measure;
    oscillation;
    threads_per_core;
    placement;
    collect_metrics;
  }

let sum_counters counters field =
  Array.fold_left (fun acc c -> acc + field c) 0 counters

let run ?attach s =
  let machine = Machine.create s.cfg in
  let engine = O2_runtime.Engine.create machine in
  let ct = Coretime.create ~policy:s.policy engine () in
  (match attach with Some f -> f engine | None -> ());
  let w = Dir_workload.build ct s.spec in
  (match s.placement with
  | Some placement -> Dir_workload.spawn_threads_placed w placement
  | None ->
      for _ = 1 to s.threads_per_core do
        Dir_workload.spawn_threads w
      done);
  (match s.oscillation with
  | Some { period; divisor } ->
      Phase.oscillate_active engine w ~period ~divisor
  | None -> ());
  O2_runtime.Engine.run ~until:s.warmup engine;
  let counters = Machine.all_counters machine in
  O2_runtime.Engine.finalize_idle engine;
  let snap = Array.map Counters.copy counters in
  let ct_snap_promotions = (Coretime.stats ct).Coretime.promotions in
  let ct_snap_migrations = (Coretime.stats ct).Coretime.op_migrations in
  let rb = Coretime.Rebalancer.stats (Coretime.rebalancer ct) in
  let rb_snap_moves = rb.Coretime.Rebalancer.moves in
  let rb_snap_demotions = rb.Coretime.Rebalancer.demotions in
  (* Metrics cover only the measured window: subscribe after warmup.
     Histogram/counter mode only — no event ring, no span storage — so the
     per-cell memory cost is a few registry entries. The recorder observes
     without mutating simulator state, so points stay bit-identical. *)
  let recorder =
    if s.collect_metrics then
      Some
        (O2_obs.Recorder.attach ~ring_capacity:0 engine)
    else None
  in
  O2_runtime.Engine.run ~until:(s.warmup + s.measure) engine;
  O2_runtime.Engine.finalize_idle engine;
  let delta =
    Array.map2 (fun c sn -> Counters.diff c ~since:sn) counters snap
  in
  let ops = sum_counters delta (fun c -> c.Counters.ops_completed) in
  let seconds = float_of_int s.measure /. (s.cfg.Config.ghz *. 1e9) in
  let busy_sum =
    Array.fold_left
      (fun acc c ->
        acc
        +. (float_of_int (c.Counters.busy_cycles + c.Counters.spin_cycles)
           /. float_of_int s.measure))
      0.0 delta
  in
  {
    data_kb = Dir_workload.data_kb s.spec;
    kres_per_sec = float_of_int ops /. seconds /. 1000.0;
    ops;
    promotions = (Coretime.stats ct).Coretime.promotions - ct_snap_promotions;
    op_migrations =
      (Coretime.stats ct).Coretime.op_migrations - ct_snap_migrations;
    rebalancer_moves = rb.Coretime.Rebalancer.moves - rb_snap_moves;
    rebalancer_demotions =
      rb.Coretime.Rebalancer.demotions - rb_snap_demotions;
    dram_loads = sum_counters delta (fun c -> c.Counters.dram_loads);
    remote_hits = sum_counters delta (fun c -> c.Counters.remote_hits);
    spin_cycles = sum_counters delta (fun c -> c.Counters.spin_cycles);
    avg_busy = busy_sum /. float_of_int (Config.cores s.cfg);
    metrics = Option.map O2_obs.Recorder.metrics recorder;
  }

(* [run] builds everything fresh — machine, engine, coretime, workload —
   and reads no shared mutable state, so independent cells can run on
   separate domains; results come back in input order and are bit-identical
   to a sequential run (each cell's RNG seeding depends only on its own
   spec). *)
let run_cells ?attach ~jobs setups =
  match attach with
  | None -> O2_native.Native_pool.map ~jobs (fun s -> run s) setups
  | Some attach ->
      (* Pair each cell with its index so the per-cell hook can file what it
         attached (e.g. an occupancy tracker) in a caller-side slot. Each
         worker writes only its own slots, and the pool joins before the
         caller reads them. *)
      let indexed = List.mapi (fun i s -> (i, s)) setups in
      O2_native.Native_pool.map ~jobs
        (fun (i, s) -> run ~attach:(attach i) s)
        indexed

let scaled ~quick cycles = if quick then cycles / 4 else cycles

let kb_ladder ~quick =
  if quick then [ 256; 1024; 2048; 4096; 8192; 16384; 20480 ]
  else
    [ 256; 512; 1024; 1536; 2048; 3072; 4096; 6144; 8192; 10240; 12288; 16384; 20480 ]

let ratio_summary ~with_ct ~without_ct =
  let open O2_stats in
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let ratio = Series.ratio ~num:with_ct ~den:without_ct in
  let region lo hi =
    let rs =
      List.filter
        (fun p -> p.Series.x >= float_of_int lo && p.Series.x <= float_of_int hi)
        ratio.Series.points
    in
    match Summary.of_list (List.map (fun p -> p.Series.y) rs) with
    | None -> None
    | Some s -> Some s
  in
  (match region 3072 16384 with
  | Some s ->
      add "beyond-L3 region (3MB..16MB): CoreTime/baseline = %.2fx mean (min %.2fx, max %.2fx)"
        s.Summary.mean s.Summary.min s.Summary.max
  | None -> ());
  (match region 512 2048 with
  | Some s ->
      add "fits-in-L3 region (512KB..2MB): CoreTime/baseline = %.2fx mean"
        s.Summary.mean
  | None -> ());
  (match Series.crossover ~a:with_ct ~b:without_ct with
  | Some x -> add "curves cross near %.0f KB" x
  | None -> add "no crossover within the sweep");
  Buffer.contents buf
