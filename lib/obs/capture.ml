(* Readers for a Telemetry capture, the quiescent-side half of the
   flight recorder on both backends. Each sink's ring is nondecreasing
   by construction (the writer clamps its stamps), so the global order
   is a k-way cursor merge with no sort — pick the smallest head
   timestamp, ties to the lower sink id, which makes the merged order
   total and deterministic for a fixed capture.

   Span reconstruction gathers each token's records: Submit, Ship_out,
   Ship_in (native only), Start and End each fill in their part of the
   span, in any order, so records of different sinks with equal stamps
   (common on the simulator, where a departure and the start on the
   destination can share a cycle) build the same span whichever the
   merge puts first. A span with a
   record lost to the ring bound is counted incomplete instead of being
   emitted half-built — drops are accounted, never papered over. *)

open O2_runtime

type event = {
  ts : int;
  sink : int;
  kind : Telemetry.kind;
  a : int;
  b : int;
  c : int;
}

let merged_events tel =
  let sinks =
    Array.init
      (if Telemetry.enabled tel then Telemetry.domains tel + 1 else 0)
      (fun d -> Telemetry.sink tel d)
  in
  let k = Array.length sinks in
  let cursor = Array.make (max k 1) 0 in
  let total =
    Array.fold_left (fun acc s -> acc + Telemetry.length s) 0 sinks
  in
  let out =
    Array.make total { ts = 0; sink = 0; kind = Quiesce; a = 0; b = 0; c = 0 }
  in
  for slot = 0 to total - 1 do
    let best = ref (-1) in
    let best_ts = ref max_int in
    for d = 0 to k - 1 do
      if cursor.(d) < Telemetry.length sinks.(d) then begin
        let ts = Telemetry.ts sinks.(d) cursor.(d) in
        if ts < !best_ts then begin
          best := d;
          best_ts := ts
        end
      end
    done;
    let d = !best in
    let i = cursor.(d) in
    cursor.(d) <- i + 1;
    out.(slot) <-
      {
        ts = Telemetry.ts sinks.(d) i;
        sink = d;
        kind = Telemetry.kind sinks.(d) i;
        a = Telemetry.arg0 sinks.(d) i;
        b = Telemetry.arg1 sinks.(d) i;
        c = Telemetry.arg2 sinks.(d) i;
      }
  done;
  out

type span = {
  token : int;
  obj : int;
  home : int;  (* -1 when the object had no home *)
  submit_sink : int;
  submit_ts : int;
  ship_out_ts : int;  (* -1 when the op ran where it was submitted *)
  ship_in_ts : int;
  ship_dst : int;
  exec_sink : int;
  start_ts : int;
  end_ts : int;
}

let shipped s = s.ship_out_ts >= 0
let queue s = (if shipped s then s.ship_out_ts else s.start_ts) - s.submit_ts
let migrate s = if shipped s then s.start_ts - s.ship_out_ts else 0
let exec s = s.end_ts - s.start_ts

type op_class = Home_hit | Remote | Migrated

let classify s =
  if shipped s then Migrated else if s.home >= 0 then Home_hit else Remote

let class_name = function
  | Home_hit -> "home-hit"
  | Remote -> "remote"
  | Migrated -> "migrated"

let submitted ~token ~obj ~sink ~ts =
  {
    token;
    obj;
    home = -1;
    submit_sink = sink;
    submit_ts = ts;
    ship_out_ts = -1;
    ship_in_ts = -1;
    ship_dst = -1;
    exec_sink = -1;
    start_ts = -1;
    end_ts = -1;
  }

let spans_of_events events =
  let by_token : (int, span) Hashtbl.t = Hashtbl.create 256 in
  let ended = ref [] in
  Array.iter
    (fun e ->
      let fill f =
        let s =
          match Hashtbl.find_opt by_token e.a with
          | Some s -> s
          | None -> submitted ~token:e.a ~obj:e.b ~sink:(-1) ~ts:(-1)
        in
        Hashtbl.replace by_token e.a (f s)
      in
      match e.kind with
      | Telemetry.Submit ->
          fill (fun s ->
              { s with obj = e.b; submit_sink = e.sink; submit_ts = e.ts })
      | Telemetry.Ship_out ->
          fill (fun s -> { s with ship_out_ts = e.ts; ship_dst = e.c })
      | Telemetry.Ship_in -> fill (fun s -> { s with ship_in_ts = e.ts })
      | Telemetry.Start ->
          (* with no Ship_in (the simulator's ops), it lands at start *)
          fill (fun s ->
              let landed = if s.ship_in_ts < 0 then e.ts else s.ship_in_ts in
              { s with home = e.c; exec_sink = e.sink; start_ts = e.ts;
                       ship_in_ts = landed })
      | Telemetry.End ->
          ended := e.a :: !ended;
          fill (fun s -> { s with end_ts = e.ts })
      | _ -> ())
    events;
  (* A span whose Submit, Start or End fell to the ring bound is
     incomplete; so is one that never ended. *)
  let complete s = s.submit_ts >= 0 && s.start_ts >= 0 && s.end_ts >= 0 in
  let done_ =
    List.filter complete
      (List.rev_map (fun token -> Hashtbl.find by_token token) !ended)
  in
  let incomplete =
    Hashtbl.fold (fun _ s n -> if complete s then n else n + 1) by_token 0
  in
  (done_, incomplete)

let spans tel = spans_of_events (merged_events tel)

let accounting tel =
  let complete, incomplete = spans tel in
  let dropped = Telemetry.total_dropped tel in
  Printf.sprintf
    "%d spans, %d incomplete; %d records retained, %d dropped by the ring \
     bound"
    (List.length complete) incomplete
    (Telemetry.total_events tel - dropped)
    dropped

let time_unit tel =
  match Telemetry.clock tel with
  | Telemetry.Wall_ns -> "wall-clock ns"
  | Telemetry.Cycles _ -> "simulated cycles"

let decision_kinds =
  [| "promote"; "replicate"; "move"; "demote"; "displace"; "release" |]

(* ------------------------------------------------------------------ *)
(* Metrics import                                                      *)

let import_acc m name acc =
  if Telemetry.acc_total acc > 0 then
    Hist.merge_into ~into:(Metrics.hist m name)
      (Hist.of_raw
         ~counts:(Telemetry.acc_counts acc)
         ~total:(Telemetry.acc_total acc)
         ~sum:(Telemetry.acc_sum acc) ~min_v:(Telemetry.acc_min acc)
         ~max_v:(Telemetry.acc_max acc))

let metrics tel =
  let m = Metrics.create () in
  Telemetry.fold_sinks tel ~init:() ~f:(fun () s ->
      (* All hist names carry the unit: these are wall-clock
         nanoseconds, never simulator cycles. *)
      import_acc m "op_ns/home" (Telemetry.lat_home s);
      import_acc m "op_ns/shipped" (Telemetry.lat_shipped s);
      import_acc m "op_ns/ship_delay" (Telemetry.lat_ship_delay s);
      import_acc m "op_ns/exec" (Telemetry.lat_exec s);
      Metrics.incr m "steals" ~by:(Telemetry.steals s);
      Metrics.incr m "ships_out" ~by:(Telemetry.ships_out s);
      Metrics.incr m "ships_in" ~by:(Telemetry.ships_in s);
      Metrics.incr m "parks" ~by:(Telemetry.parks s);
      Metrics.incr m "wakes" ~by:(Telemetry.wakes s);
      Metrics.incr m "spawns" ~by:(Telemetry.spawns s);
      Metrics.incr m "inbox_batches" ~by:(Telemetry.inbox_batches s);
      Metrics.incr m "inbox_tasks" ~by:(Telemetry.inbox_tasks s);
      Metrics.incr m "ops_submitted" ~by:(Telemetry.ops_submitted s);
      Metrics.incr m "events_retained" ~by:(Telemetry.length s);
      Metrics.incr m "events_dropped" ~by:(Telemetry.dropped s));
  m
