open O2_simcore
open O2_runtime

type t = {
  tel : Telemetry.t;
  metrics_ : Metrics.t;
  machine : Machine.t;
  names : (int, string) Hashtbl.t;
      (* object base -> the name the scheduler's decisions gave it *)
  open_ : (int, Capture.span list) Hashtbl.t;
      (* per thread, innermost first; the head may still be waiting for
         its start (a nested request only follows its parent's start) *)
  mutable last_counters : Counters.t array;
  mutable last_snap_time : int;
}

let metrics t = t.metrics_
let capture t = t.tel

(* A decided object keeps the scheduler's name for it (a directory
   inside one Memsys extent, say); any other by its Memsys extent. *)
let obj_name t addr =
  match Hashtbl.find_opt t.names addr with
  | Some name -> name
  | None -> (
      match Memsys.object_at (Machine.memory t.machine) ~addr with
      | Some e -> e.Memsys.name
      | None -> Printf.sprintf "op@0x%x" addr)

let m_ops = "ops"
let m_migrations = "migrations"
let m_mem_events = "mem/events"
let m_locks_acquired = "locks/acquired"
let m_locks_handoffs = "locks/handoffs"
let m_threads_spawned = "threads/spawned"
let m_threads_finished = "threads/finished"
let m_rebalance_periods = "rebalance/periods"
let m_rebalance_moves = "rebalance/moves"
let m_rebalance_demotions = "rebalance/demotions"
let h_latency = "op/latency"
let h_home_hit = "op/home_hit"
let h_remote = "op/remote"
let h_migrated = "op/migrated"
let h_queue = "op/queue"
let h_migrate = "op/migrate"
let h_exec = "op/exec"
let h_monitor_idle = "monitor/idle_pct"
let h_monitor_dram = "monitor/dram_loads"
let h_monitor_l2 = "monitor/l2_hits"

(* By index into Capture.decision_kinds. *)
let m_decisions =
  [|
    "decisions/promoted";
    "decisions/replicated";
    "decisions/moved";
    "decisions/demoted";
    "decisions/displaced";
    "decisions/released";
  |]

(* A decision's kind (its Capture.decision_kinds index), its object, the
   object's name and the core the action landed on. *)
let decision_record = function
  | Probe.Promoted { obj_base; name; core; _ } -> (0, obj_base, name, core)
  | Probe.Promotion_replicated { obj_base; name; _ } -> (1, obj_base, name, 0)
  | Probe.Moved { obj_base; name; to_core; _ } -> (2, obj_base, name, to_core)
  | Probe.Demoted { obj_base; name; core; _ } -> (3, obj_base, name, core)
  | Probe.Displaced { hot_base; hot_name; core; _ } ->
      (4, hot_base, hot_name, core)
  | Probe.Released { obj_base; name; core; _ } -> (5, obj_base, name, core)

let record_span t (s : Capture.span) =
  let m = t.metrics_ in
  Metrics.incr m m_ops;
  let total = s.Capture.end_ts - s.Capture.submit_ts in
  Metrics.observe m h_latency total;
  Metrics.observe m
    (match Capture.classify s with
    | Capture.Home_hit -> h_home_hit
    | Capture.Remote -> h_remote
    | Capture.Migrated -> h_migrated)
    total;
  Metrics.observe m h_queue (Capture.queue s);
  Metrics.observe m h_migrate (Capture.migrate s);
  Metrics.observe m h_exec (Capture.exec s)

(* Per-core utilisation snapshot for one monitor period. The rebalancer
   finalizes idle accounting before announcing the period, so idle_cycles
   deltas are meaningful here. *)
let snapshot_cores t ~now =
  let current = Machine.all_counters t.machine in
  let period = now - t.last_snap_time in
  Array.iteri
    (fun core c ->
      let d = Counters.diff c ~since:t.last_counters.(core) in
      let idle_frac =
        if period > 0 then
          float_of_int d.Counters.idle_cycles /. float_of_int period
        else 0.0
      in
      let prefix = Printf.sprintf "core%02d/" core in
      Metrics.set_gauge t.metrics_ (prefix ^ "idle_frac") idle_frac;
      Metrics.set_gauge t.metrics_ (prefix ^ "dram_loads")
        (float_of_int d.Counters.dram_loads);
      Metrics.set_gauge t.metrics_ (prefix ^ "l2_hits")
        (float_of_int d.Counters.l2_hits);
      Metrics.observe t.metrics_ h_monitor_idle
        (int_of_float (idle_frac *. 100.0));
      Metrics.observe t.metrics_ h_monitor_dram d.Counters.dram_loads;
      Metrics.observe t.metrics_ h_monitor_l2 d.Counters.l2_hits)
    current;
  t.last_counters <- Array.map Counters.copy current;
  t.last_snap_time <- now

(* A span opened at [ts] on [core]'s sink, with a fresh token. *)
let open_span t ~core ~ts ~obj =
  Capture.submitted
    ~token:(Telemetry.op_submit_at (Telemetry.sink t.tel core) ~ts ~obj)
    ~obj ~sink:core ~ts

(* Writes one of a span's records; a sampled-out span writes none. *)
let write t (s : Capture.span) ~core ~ts ~kind ~c =
  if s.Capture.token >= 0 then
    Telemetry.record_at (Telemetry.sink t.tel core) ~ts ~kind
      ~a:s.Capture.token ~b:s.Capture.obj ~c

let stack t tid = Option.value ~default:[] (Hashtbl.find_opt t.open_ tid)

let on_event t ev =
  let m = t.metrics_ in
  match ev with
  | Probe.Mem _ -> Metrics.incr m m_mem_events
  | Probe.Lock_acquired { contended; _ } ->
      Metrics.incr m m_locks_acquired;
      if contended then Metrics.incr m m_locks_handoffs
  | Probe.Lock_released _ -> ()
  | Probe.Thread_spawned _ -> Metrics.incr m m_threads_spawned
  | Probe.Thread_finished { tid; _ } ->
      Metrics.incr m m_threads_finished;
      Hashtbl.remove t.open_ tid
  | Probe.Thread_moved { time; tid; from_core; to_core } -> (
      Metrics.incr m m_migrations;
      (* Only the departure of a requested, not yet started op ships it;
         later moves (the return after ct_end) belong to no span. *)
      match stack t tid with
      | s :: rest when s.Capture.start_ts < 0 && s.Capture.ship_out_ts < 0 ->
          write t s ~core:from_core ~ts:time ~kind:Telemetry.Ship_out
            ~c:to_core;
          Hashtbl.replace t.open_ tid
            ({ s with Capture.ship_out_ts = time; ship_dst = to_core } :: rest)
      | _ -> ())
  | Probe.Op_requested { time; core; tid; addr } ->
      (* A request replaces one that never started. *)
      let rest =
        match stack t tid with
        | s :: rest when s.Capture.start_ts < 0 -> rest
        | st -> st
      in
      Hashtbl.replace t.open_ tid
        (open_span t ~core ~ts:time ~obj:addr :: rest)
  | Probe.Op_started { time; core; tid; addr; home } ->
      let s, rest =
        match stack t tid with
        | s :: rest when s.Capture.start_ts < 0 -> (s, rest)
        | st ->
            (* a start without a request (a scripted stream): zero
               queue and migrate *)
            (open_span t ~core ~ts:time ~obj:addr, st)
      in
      let home = Option.value ~default:(-1) home in
      (* The op lands as it starts: no Ship_in record (see Capture). *)
      write t s ~core ~ts:time ~kind:Telemetry.Start ~c:home;
      Hashtbl.replace t.open_ tid
        ({ s with Capture.home; exec_sink = core; start_ts = time } :: rest)
  | Probe.Op_ended { time; core; tid } -> (
      match stack t tid with
      | s :: rest when s.Capture.start_ts >= 0 ->
          Hashtbl.replace t.open_ tid rest;
          write t s ~core ~ts:time ~kind:Telemetry.End ~c:0;
          record_span t { s with Capture.end_ts = time; exec_sink = core }
      | _ -> () (* unmatched end: the analysis layer's finding *))
  | Probe.Rebalanced { time; moves; demotions } ->
      Metrics.incr m m_rebalance_periods;
      Metrics.incr ~by:moves m m_rebalance_moves;
      Metrics.incr ~by:demotions m m_rebalance_demotions;
      Telemetry.record_at (Telemetry.coordinator t.tel) ~ts:time
        ~kind:Telemetry.Rebalance ~a:moves ~b:demotions ~c:0;
      snapshot_cores t ~now:time
  | Probe.Decision { time; decision } ->
      let kind, obj, name, core = decision_record decision in
      Metrics.incr m m_decisions.(kind);
      Hashtbl.replace t.names obj name;
      Telemetry.record_at (Telemetry.coordinator t.tel) ~ts:time
        ~kind:Telemetry.Decision ~a:kind ~b:obj ~c:core

let attach ?(ring_capacity = 1 lsl 16) ?(sample = 1) engine =
  let machine = Engine.machine engine in
  let cfg = Machine.cfg machine in
  let t =
    {
      tel =
        Telemetry.create_simulated ~ring_capacity ~sample
          ~cores:(Config.cores cfg) ~ghz:cfg.Config.ghz;
      metrics_ = Metrics.create ();
      machine;
      names = Hashtbl.create 64;
      open_ = Hashtbl.create 64;
      last_counters = Array.map Counters.copy (Machine.all_counters machine);
      last_snap_time = 0;
    }
  in
  Probe.subscribe (Engine.probe engine) (on_event t);
  t
