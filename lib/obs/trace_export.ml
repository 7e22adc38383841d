open O2_runtime

(* ------------------------------------------------------------------ *)
(* Chrome / Perfetto trace_event JSON                                  *)

let escape_json s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The monitor's (coordinator's) sink index: one past the last writer. *)
let monitor tel = if Telemetry.enabled tel then Telemetry.domains tel else 0

(* A sink's name, the same in both writers. *)
let track tel sink =
  match (Telemetry.clock tel, sink = monitor tel) with
  | Telemetry.Cycles _, true -> "monitor"
  | Telemetry.Cycles _, false -> Printf.sprintf "core %d" sink
  | Telemetry.Wall_ns, true -> "coordinator"
  | Telemetry.Wall_ns, false -> Printf.sprintf "domain %d" sink

type source = Raw of Telemetry.t | Recorded of Recorder.t

let to_string ?occupancy source =
  let tel, obj_name =
    match source with
    | Raw tel -> (tel, Printf.sprintf "obj%d")
    | Recorded r -> (Recorder.capture r, Recorder.obj_name r)
  in
  let buf = Buffer.create 65536 in
  let events = Capture.merged_events tel in
  let spans, incomplete = Capture.spans_of_events events in
  let monitor = monitor tel in
  (* trace_event timestamps are microseconds. Simulated cycles start at
     0; wall-clock stamps are rebased to the capture's first record. *)
  let simulated, t0, ticks_per_us =
    match Telemetry.clock tel with
    | Telemetry.Cycles ghz -> (true, 0, ghz *. 1000.0)
    | Telemetry.Wall_ns ->
        let t0 = if Array.length events > 0 then events.(0).Capture.ts else 0 in
        (false, t0, 1000.0)
  in
  let us ts = float_of_int (ts - t0) /. ticks_per_us in
  let dur d = float_of_int (max d 0) /. ticks_per_us in
  let unit_sfx = if simulated then "cycles" else "ns" in
  let name_of obj = escape_json (obj_name obj) in
  let first = ref true in
  let event fmt =
    Printf.ksprintf
      (fun s ->
        if !first then first := false else Buffer.add_string buf ",\n";
        Buffer.add_string buf "    ";
        Buffer.add_string buf s)
      fmt
  in
  Buffer.add_string buf "{\n  \"traceEvents\": [\n";
  event
    "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"args\": \
     {\"name\": \"%s\"}}"
    (if simulated then "o2sim simulated machine" else "o2sim native run");
  for sink = 0 to monitor do
    event
      "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": %d, \
       \"args\": {\"name\": \"%s\"}}"
      sink (track tel sink);
    event
      "{\"name\": \"thread_sort_index\", \"ph\": \"M\", \"pid\": 0, \"tid\": \
       %d, \"args\": {\"sort_index\": %d}}"
      sink sink
  done;
  (* Op spans on the executing sink's track. *)
  List.iter
    (fun (s : Capture.span) ->
      event
        "{\"name\": \"%s\", \"cat\": \"op\", \"ph\": \"X\", \"pid\": 0, \
         \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"token\": %d, \
         \"class\": \"%s\", \"submit\": %d%s, \"queue_%s\": %d, \
         \"migrate_%s\": %d, \"exec_%s\": %d}}"
        (name_of s.Capture.obj) s.Capture.exec_sink (us s.Capture.start_ts)
        (dur (Capture.exec s)) s.Capture.token
        (Capture.class_name (Capture.classify s))
        s.Capture.submit_sink
        (if s.Capture.home < 0 then ""
         else Printf.sprintf ", \"home\": %d" s.Capture.home)
        unit_sfx (Capture.queue s) unit_sfx (Capture.migrate s) unit_sfx
        (Capture.exec s))
    spans;
  (* Shipped ops as flow arrows: submitter -> executor, id = token. *)
  List.iter
    (fun (s : Capture.span) ->
      if Capture.shipped s then begin
        event
          "{\"name\": \"ship %s\", \"cat\": \"ship\", \"ph\": \"s\", \"id\": \
           %d, \"pid\": 0, \"tid\": %d, \"ts\": %.3f}"
          (name_of s.Capture.obj) s.Capture.token s.Capture.submit_sink
          (us s.Capture.ship_out_ts);
        event
          "{\"name\": \"ship %s\", \"cat\": \"ship\", \"ph\": \"f\", \"bp\": \
           \"e\", \"id\": %d, \"pid\": 0, \"tid\": %d, \"ts\": %.3f}"
          (name_of s.Capture.obj) s.Capture.token s.Capture.exec_sink
          (us s.Capture.ship_in_ts)
      end)
    spans;
  (* Monitor and scheduler life, straight off the merged stream. *)
  let park_since = Array.make (monitor + 1) (-1) in
  Array.iter
    (fun (e : Capture.event) ->
      match e.Capture.kind with
      | Telemetry.Park -> park_since.(e.Capture.sink) <- e.Capture.ts
      | Telemetry.Wake ->
          let p = park_since.(e.Capture.sink) in
          if p >= 0 then begin
            park_since.(e.Capture.sink) <- -1;
            event
              "{\"name\": \"parked\", \"cat\": \"idle\", \"ph\": \"X\", \
               \"pid\": 0, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}"
              e.Capture.sink (us p) (dur (e.Capture.ts - p))
          end
      | Telemetry.Steal ->
          event
            "{\"name\": \"steal from %d\", \"cat\": \"steal\", \"ph\": \
             \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": %d, \"ts\": %.3f, \
             \"args\": {\"victim\": %d}}"
            e.Capture.a e.Capture.sink (us e.Capture.ts) e.Capture.a
      | Telemetry.Inbox_batch ->
          event
            "{\"name\": \"inbox domain %d\", \"ph\": \"C\", \"pid\": 0, \
             \"ts\": %.3f, \"args\": {\"tasks\": %d}}"
            e.Capture.sink (us e.Capture.ts) e.Capture.a
      | Telemetry.Rebalance ->
          event
            "{\"name\": \"rebalance\", \"cat\": \"monitor\", \"ph\": \"i\", \
             \"s\": \"g\", \"pid\": 0, \"tid\": %d, \"ts\": %.3f, \"args\": \
             {\"moves\": %d, \"demotions\": %d}}"
            e.Capture.sink (us e.Capture.ts) e.Capture.a e.Capture.b
      | Telemetry.Quiesce ->
          event
            "{\"name\": \"quiesce\", \"cat\": \"monitor\", \"ph\": \"i\", \
             \"s\": \"g\", \"pid\": 0, \"tid\": %d, \"ts\": %.3f}"
            e.Capture.sink (us e.Capture.ts)
      | Telemetry.Decision ->
          event
            "{\"name\": \"decision/%s\", \"cat\": \"decision\", \"ph\": \
             \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": %d, \"ts\": %.3f, \
             \"args\": {\"object\": \"%s\"}}"
            Capture.decision_kinds.(e.Capture.a)
            e.Capture.c (us e.Capture.ts) (name_of e.Capture.b)
      | _ -> ())
    events;
  (* Occupancy counter tracks: one "C" series per cache, sampled on the
     observatory's interval, so Perfetto draws resident lines and distinct
     objects over time next to the operation spans. *)
  Option.iter
    (fun occ ->
      let n = Occupancy.cache_count occ in
      List.iter
        (fun (s : Occupancy.sample) ->
          for ci = 0 to n - 1 do
            event
              "{\"name\": \"occ/%s\", \"ph\": \"C\", \"pid\": 0, \"ts\": \
               %.3f, \"args\": {\"lines\": %d, \"objects\": %d}}"
              (escape_json (Occupancy.label occ ci))
              (us s.Occupancy.at) s.Occupancy.lines.(ci) s.Occupancy.objs.(ci)
          done)
        (Occupancy.samples occ))
    occupancy;
  Buffer.add_string buf "\n  ],\n";
  Printf.ksprintf (Buffer.add_string buf)
    "  \"displayTimeUnit\": \"ms\",\n\
    \  \"otherData\": {\"sinks\": %d, \"sample\": %d, \"events_retained\": \
     %d, \"dropped_events\": %d, \"spans_complete\": %d, \
     \"spans_incomplete\": %d%s%s, \"time_unit\": \"%s\", \"clock\": \
     \"%s\"}\n"
    (if Telemetry.enabled tel then monitor + 1 else 0)
    (Telemetry.sample tel) (Array.length events)
    (Telemetry.total_dropped tel)
    (List.length spans) incomplete
    (match occupancy with
    | None -> ""
    | Some occ ->
        Printf.sprintf ", \"occupancy_samples\": %d, \"occupancy_dropped\": %d"
          (List.length (Occupancy.samples occ))
          (Occupancy.samples_dropped occ))
    (match Telemetry.clock tel with
    | Telemetry.Cycles ghz -> Printf.sprintf ", \"ghz\": %.2f" ghz
    | Telemetry.Wall_ns -> "")
    (Capture.time_unit tel)
    (if simulated then "virtual" else "CLOCK_MONOTONIC");
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_file ?occupancy source ~path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (to_string ?occupancy source))

(* ------------------------------------------------------------------ *)
(* ASCII timeline: a screenshot-equivalent for docs and terminals      *)

let ascii_timeline ?(width = 72) tel =
  let events = Capture.merged_events tel in
  let spans, _ = Capture.spans_of_events events in
  let monitor = monitor tel in
  let rebalances =
    List.filter_map
      (fun (e : Capture.event) ->
        if e.Capture.kind = Telemetry.Rebalance then Some e.Capture.ts
        else None)
      (Array.to_list events)
  in
  let lo, hi =
    let bounds (lo, hi) t = (min lo t, max hi t) in
    List.fold_left bounds
      (List.fold_left
         (fun acc (s : Capture.span) ->
           bounds (bounds acc s.Capture.submit_ts) s.Capture.end_ts)
         (max_int, min_int) spans)
      rebalances
  in
  if lo > hi then "(no events recorded)\n"
  else begin
    let span_ticks = max 1 (hi - lo) in
    let col t = min (width - 1) ((t - lo) * width / span_ticks) in
    (* One lane per writer sink, then the monitor's. *)
    let lanes = Array.init (monitor + 1) (fun _ -> Bytes.make width '.') in
    (* Ship marks only fill columns where the lane runs no op. *)
    let mark lane t c =
      if lane >= 0 && lane < monitor && t >= 0
         && Bytes.get lanes.(lane) (col t) = '.'
      then Bytes.set lanes.(lane) (col t) c
    in
    List.iter
      (fun (s : Capture.span) ->
        let lane = s.Capture.exec_sink in
        if lane >= 0 && lane < monitor then
          for c = col s.Capture.start_ts to col s.Capture.end_ts do
            Bytes.set lanes.(lane) c '#'
          done)
      spans;
    List.iter
      (fun (s : Capture.span) ->
        if Capture.shipped s then begin
          mark s.Capture.submit_sink s.Capture.ship_out_ts '>';
          mark s.Capture.exec_sink s.Capture.ship_in_ts '<'
        end)
      spans;
    List.iter (fun t -> Bytes.set lanes.(monitor) (col t) 'R') rebalances;
    let buf = Buffer.create ((monitor + 3) * (width + 16)) in
    Printf.ksprintf (Buffer.add_string buf)
      "time %d..%d (%s); one column ~ %d\n\
       (# op executing, > op shipped out, < op landed, R monitor period)\n"
      lo hi (Capture.time_unit tel) (span_ticks / width);
    let names = Array.init (monitor + 1) (track tel) in
    let pad = Array.fold_left (fun w n -> max w (String.length n)) 0 names in
    Array.iteri
      (fun lane b ->
        Printf.ksprintf (Buffer.add_string buf) "%-*s |%s|\n" pad names.(lane)
          (Bytes.to_string b))
      lanes;
    Buffer.contents buf
  end
