open O2_simcore
open O2_runtime

type span = {
  tid : int;
  addr : int;
  home : int option;
  request_core : int;
  exec_core : int;
  request_time : int;
  start_time : int;
  end_time : int;
  queue : int;
  migrate : int;
  exec : int;
  migrated : bool;
}

type op_class = Home_hit | Remote | Migrated

let classify s =
  if s.migrated then Migrated
  else if Option.is_some s.home then Home_hit
  else Remote

(* A ct_start that has been requested but not yet started; at most one per
   thread (a nested ct_start can only be entered once the outer one has
   started). *)
type pending = {
  p_addr : int;
  p_core : int;
  p_time : int;
  mutable p_moved_at : int;  (* departure time of the op migration; -1 *)
}

type open_span = {
  o_addr : int;
  o_home : int option;
  o_request_core : int;
  o_request_time : int;
  o_start_time : int;
  o_queue : int;
  o_migrate : int;
  o_migrated : bool;
}

type t = {
  ring : Probe.event Ring.t;
  metrics_ : Metrics.t;
  machine_ : Machine.t;
  sample_mem : int;
  span_capacity : int;
  mutable mem_seen : int;
  mutable spans_rev : span list;
  mutable span_count : int;
  mutable span_drops : int;
  pending : (int, pending) Hashtbl.t;
  open_ : (int, open_span list) Hashtbl.t;
  mutable last_counters : Counters.t array;
  mutable last_snap_time : int;
}

let metrics t = t.metrics_
let machine t = t.machine_
let events t = Ring.to_list t.ring
let events_retained t = Ring.length t.ring
let events_total t = Ring.total t.ring
let events_dropped t = Ring.dropped t.ring
let spans t = List.rev t.spans_rev
let span_count t = t.span_count
let spans_dropped t = t.span_drops

let m_ops = "ops"
let m_migrations = "migrations"
let m_mem_events = "mem/events"
let m_mem_sampled = "mem/sampled"
let m_locks_acquired = "locks/acquired"
let m_locks_handoffs = "locks/handoffs"
let m_threads_spawned = "threads/spawned"
let m_threads_finished = "threads/finished"
let m_rebalance_periods = "rebalance/periods"
let m_rebalance_moves = "rebalance/moves"
let m_rebalance_demotions = "rebalance/demotions"
let m_decisions_promoted = "decisions/promoted"
let m_decisions_replicated = "decisions/replicated"
let m_decisions_moved = "decisions/moved"
let m_decisions_demoted = "decisions/demoted"
let m_decisions_displaced = "decisions/displaced"
let m_decisions_released = "decisions/released"
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

let record_span t s =
  let m = t.metrics_ in
  Metrics.incr m m_ops;
  let total = s.end_time - s.request_time in
  Metrics.observe m h_latency total;
  Metrics.observe m
    (match classify s with
    | Home_hit -> h_home_hit
    | Remote -> h_remote
    | Migrated -> h_migrated)
    total;
  Metrics.observe m h_queue s.queue;
  Metrics.observe m h_migrate s.migrate;
  Metrics.observe m h_exec s.exec;
  if t.span_count < t.span_capacity then begin
    t.spans_rev <- s :: t.spans_rev;
    t.span_count <- t.span_count + 1
  end
  else t.span_drops <- t.span_drops + 1

(* Per-core utilisation snapshot for one monitor period. The rebalancer
   finalizes idle accounting before announcing the period, so idle_cycles
   deltas are meaningful here. *)
let snapshot_cores t ~now =
  let current = Machine.all_counters t.machine_ in
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

let on_event t ev =
  let m = t.metrics_ in
  (match ev with
  | Probe.Mem _ ->
      Metrics.incr m m_mem_events;
      let keep = t.sample_mem > 0 && t.mem_seen mod t.sample_mem = 0 in
      t.mem_seen <- t.mem_seen + 1;
      if keep then begin
        Metrics.incr m m_mem_sampled;
        Ring.push t.ring ev
      end
  | _ -> Ring.push t.ring ev);
  match ev with
  | Probe.Mem _ -> ()
  | Probe.Lock_acquired { contended; _ } ->
      Metrics.incr m m_locks_acquired;
      if contended then Metrics.incr m m_locks_handoffs
  | Probe.Lock_released _ -> ()
  | Probe.Thread_spawned _ -> Metrics.incr m m_threads_spawned
  | Probe.Thread_finished { tid; _ } ->
      Metrics.incr m m_threads_finished;
      Hashtbl.remove t.pending tid;
      Hashtbl.remove t.open_ tid
  | Probe.Thread_moved { time; tid; _ } -> (
      Metrics.incr m m_migrations;
      match Hashtbl.find_opt t.pending tid with
      | Some p when p.p_moved_at < 0 -> p.p_moved_at <- time
      | Some _ | None -> ())
  | Probe.Op_requested { time; core; tid; addr } ->
      Hashtbl.replace t.pending tid
        { p_addr = addr; p_core = core; p_time = time; p_moved_at = -1 }
  | Probe.Op_started { time; tid; addr; home; _ } ->
      let frame =
        match Hashtbl.find_opt t.pending tid with
        | Some p ->
            Hashtbl.remove t.pending tid;
            let migrated = p.p_moved_at >= 0 in
            {
              o_addr = p.p_addr;
              o_home = home;
              o_request_core = p.p_core;
              o_request_time = p.p_time;
              o_start_time = time;
              o_queue = (if migrated then p.p_moved_at else time) - p.p_time;
              o_migrate = (if migrated then time - p.p_moved_at else 0);
              o_migrated = migrated;
            }
        | None ->
            (* start without a request (synthetic event): zero breakdown *)
            {
              o_addr = addr;
              o_home = home;
              o_request_core = -1;
              o_request_time = time;
              o_start_time = time;
              o_queue = 0;
              o_migrate = 0;
              o_migrated = false;
            }
      in
      let stack = Option.value ~default:[] (Hashtbl.find_opt t.open_ tid) in
      Hashtbl.replace t.open_ tid (frame :: stack)
  | Probe.Op_ended { time; core; tid } -> (
      match Hashtbl.find_opt t.open_ tid with
      | Some (frame :: rest) ->
          if rest = [] then Hashtbl.remove t.open_ tid
          else Hashtbl.replace t.open_ tid rest;
          record_span t
            {
              tid;
              addr = frame.o_addr;
              home = frame.o_home;
              request_core =
                (if frame.o_request_core >= 0 then frame.o_request_core
                 else core);
              exec_core = core;
              request_time = frame.o_request_time;
              start_time = frame.o_start_time;
              end_time = time;
              queue = frame.o_queue;
              migrate = frame.o_migrate;
              exec = time - frame.o_start_time;
              migrated = frame.o_migrated;
            }
      | Some [] | None -> () (* unmatched end: the analysis layer's finding *))
  | Probe.Rebalanced { time; moves; demotions } ->
      Metrics.incr m m_rebalance_periods;
      Metrics.incr ~by:moves m m_rebalance_moves;
      Metrics.incr ~by:demotions m m_rebalance_demotions;
      snapshot_cores t ~now:time
  | Probe.Decision { decision; _ } ->
      Metrics.incr m
        (match decision with
        | Probe.Promoted _ -> m_decisions_promoted
        | Probe.Promotion_replicated _ -> m_decisions_replicated
        | Probe.Moved _ -> m_decisions_moved
        | Probe.Demoted _ -> m_decisions_demoted
        | Probe.Displaced _ -> m_decisions_displaced
        | Probe.Released _ -> m_decisions_released)

let attach ?(ring_capacity = 1 lsl 16) ?(span_capacity = 1 lsl 16)
    ?(sample_mem = 1) engine =
  if sample_mem < 0 then invalid_arg "Recorder.attach: sample_mem < 0";
  let machine_ = Engine.machine engine in
  let t =
    {
      ring = Ring.create ~capacity:ring_capacity;
      metrics_ = Metrics.create ();
      machine_;
      sample_mem;
      span_capacity;
      mem_seen = 0;
      spans_rev = [];
      span_count = 0;
      span_drops = 0;
      pending = Hashtbl.create 64;
      open_ = Hashtbl.create 64;
      last_counters = Array.map Counters.copy (Machine.all_counters machine_);
      last_snap_time = 0;
    }
  in
  Probe.subscribe (Engine.probe engine) (on_event t);
  t
