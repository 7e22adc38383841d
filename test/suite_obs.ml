(* The flight-recorder subsystem: ring semantics, histogram percentiles,
   span reconstruction from the probe stream through the recorder's
   telemetry capture, the metrics==simulator agreement on a real run,
   and the shape of the exported Perfetto JSON. *)

open O2_obs
module Hist = O2_runtime.Hist
module Probe = O2_runtime.Probe
module Telemetry = O2_runtime.Telemetry

(* ------------------------------------------------------------------ *)
(* Ring *)

let test_ring () =
  let r = Ring.create ~capacity:3 in
  Alcotest.(check int) "empty length" 0 (Ring.length r);
  Ring.push r 1;
  Ring.push r 2;
  Alcotest.(check (list int)) "partial fill" [ 1; 2 ] (Ring.to_list r);
  Ring.push r 3;
  Ring.push r 4;
  Ring.push r 5;
  Alcotest.(check (list int)) "keeps most recent" [ 3; 4; 5 ] (Ring.to_list r);
  Alcotest.(check int) "total" 5 (Ring.total r);
  Alcotest.(check int) "dropped = total - retained" 2 (Ring.dropped r);
  Ring.clear r;
  Alcotest.(check int) "clear resets length" 0 (Ring.length r);
  Alcotest.(check int) "clear resets total" 0 (Ring.total r)

let test_ring_zero_capacity () =
  let r = Ring.create ~capacity:0 in
  Ring.push r 42;
  Ring.push r 43;
  Alcotest.(check (list int)) "retains nothing" [] (Ring.to_list r);
  Alcotest.(check int) "still counts" 2 (Ring.total r);
  Alcotest.(check int) "all dropped" 2 (Ring.dropped r);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Ring.create: negative capacity") (fun () ->
      ignore (Ring.create ~capacity:(-1)))

(* ------------------------------------------------------------------ *)
(* Hist *)

let test_hist_buckets () =
  Alcotest.(check int) "bucket of 0" 0 (Hist.bucket_of 0);
  Alcotest.(check int) "bucket of 1" 1 (Hist.bucket_of 1);
  Alcotest.(check int) "bucket of 2" 2 (Hist.bucket_of 2);
  Alcotest.(check int) "bucket of 3" 2 (Hist.bucket_of 3);
  Alcotest.(check int) "bucket of 4" 3 (Hist.bucket_of 4);
  Alcotest.(check int) "bucket of 1023" 10 (Hist.bucket_of 1023);
  Alcotest.(check int) "bucket of 1024" 11 (Hist.bucket_of 1024)

let test_hist_exact_stats () =
  let h = Hist.create () in
  List.iter (Hist.add h) [ 10; 20; 30; 40; 1000 ];
  Alcotest.(check int) "count" 5 (Hist.count h);
  Alcotest.(check int) "sum" 1100 (Hist.sum h);
  Alcotest.(check int) "min exact" 10 (Hist.min_value h);
  Alcotest.(check int) "max exact" 1000 (Hist.max_value h);
  Alcotest.(check (float 1e-9)) "mean" 220.0 (Hist.mean h);
  (* q=0 / q=1 are clamped to the exact observed range *)
  Alcotest.(check (float 1e-9)) "q=0 is min" 10.0 (Hist.percentile h 0.0);
  Alcotest.(check (float 1e-9)) "q=1 is max" 1000.0 (Hist.percentile h 1.0)

let test_hist_percentile_edges () =
  let h = Hist.create () in
  Alcotest.(check (float 1e-9)) "empty p50" 0.0 (Hist.p50 h);
  Hist.add h 7;
  (* a single sample answers every quantile with itself *)
  Alcotest.(check (float 1e-9)) "single q=0" 7.0 (Hist.percentile h 0.0);
  Alcotest.(check (float 1e-9)) "single p50" 7.0 (Hist.p50 h);
  Alcotest.(check (float 1e-9)) "single p999" 7.0 (Hist.p999 h);
  Alcotest.(check (float 1e-9)) "single q=1" 7.0 (Hist.percentile h 1.0);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Hist.percentile: q out of range") (fun () ->
      ignore (Hist.percentile h 1.5));
  let neg = Hist.create () in
  Hist.add neg (-5);
  Alcotest.(check int) "negative clamps to 0" 0 (Hist.max_value neg);
  Alcotest.(check int) "clamped sample counted" 1 (Hist.count neg)

let test_hist_percentile_spread () =
  let h = Hist.create () in
  (* 100 samples 1..100: percentile estimates must stay within the
     winning sample's log2 bucket, and the tail must be exact because
     max rides along. *)
  for v = 1 to 100 do
    Hist.add h v
  done;
  let p50 = Hist.p50 h in
  Alcotest.(check bool) "p50 in [32,64)" true (p50 >= 32.0 && p50 < 64.0);
  Alcotest.(check bool) "p90 in [64,100]" true
    (Hist.p90 h >= 64.0 && Hist.p90 h <= 100.0);
  Alcotest.(check (float 1e-9)) "p999 clamps to observed max" 100.0
    (Hist.p999 h)

let test_hist_merge () =
  let a = Hist.create () and b = Hist.create () in
  List.iter (Hist.add a) [ 1; 2; 3 ];
  List.iter (Hist.add b) [ 100; 200 ];
  Hist.merge_into ~into:a b;
  Alcotest.(check int) "merged count" 5 (Hist.count a);
  Alcotest.(check int) "merged sum" 306 (Hist.sum a);
  Alcotest.(check int) "merged min" 1 (Hist.min_value a);
  Alcotest.(check int) "merged max" 200 (Hist.max_value a)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_registry () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.incr ~by:4 m "a";
  Metrics.incr m "b";
  Metrics.set_gauge m "g" 1.5;
  Metrics.observe m "h" 10;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value m "a");
  Alcotest.(check int) "absent counter is 0" 0 (Metrics.counter_value m "zz");
  Alcotest.(check (list (pair string int)))
    "sorted counters"
    [ ("a", 5); ("b", 1) ]
    (Metrics.counters m);
  Alcotest.(check int) "one sample observed" 1 (Hist.count (Metrics.hist m "h"))

(* ------------------------------------------------------------------ *)
(* Span reconstruction from a scripted probe stream *)

let with_recorder ?ring_capacity ?sample f =
  let machine = O2_simcore.Machine.create O2_simcore.Config.amd16 in
  let engine = O2_runtime.Engine.create machine in
  let r = Recorder.attach ?ring_capacity ?sample engine in
  let emit ev = Probe.emit (O2_runtime.Engine.probe engine) ev in
  f r emit

let spans_of r = fst (Capture.spans (Recorder.capture r))

let test_span_migrated () =
  with_recorder (fun r emit ->
      emit (Probe.Op_requested { time = 100; core = 0; tid = 5; addr = 0x40 });
      emit (Probe.Thread_moved { time = 150; tid = 5; from_core = 0; to_core = 3 });
      emit
        (Probe.Op_started
           { time = 180; core = 3; tid = 5; addr = 0x40; home = Some 3 });
      emit (Probe.Op_ended { time = 400; core = 3; tid = 5 });
      match spans_of r with
      | [ s ] ->
          Alcotest.(check int) "queue = request->departure" 50 (Capture.queue s);
          Alcotest.(check int) "migrate = departure->start" 30 (Capture.migrate s);
          Alcotest.(check int) "exec = start->end" 220 (Capture.exec s);
          Alcotest.(check int) "request core" 0 s.Capture.submit_sink;
          Alcotest.(check int) "exec core" 3 s.Capture.exec_sink;
          Alcotest.(check bool) "migrated" true (Capture.shipped s);
          Alcotest.(check bool) "classified Migrated" true
            (Capture.classify s = Capture.Migrated);
          let m = Recorder.metrics r in
          Alcotest.(check int) "ops counter" 1 (Metrics.counter_value m "ops");
          Alcotest.(check int) "latency observed" 300
            (Hist.max_value (Metrics.hist m "op/latency"));
          Alcotest.(check int) "migrated split observed" 1
            (Hist.count (Metrics.hist m "op/migrated"))
      | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans))

let test_span_home_hit_and_remote () =
  with_recorder (fun r emit ->
      (* home hit: assigned object, no move *)
      emit (Probe.Op_requested { time = 10; core = 2; tid = 1; addr = 0x80 });
      emit
        (Probe.Op_started
           { time = 15; core = 2; tid = 1; addr = 0x80; home = Some 2 });
      emit (Probe.Op_ended { time = 100; core = 2; tid = 1 });
      (* remote: unassigned object, served in place *)
      emit (Probe.Op_requested { time = 200; core = 7; tid = 2; addr = 0xc0 });
      emit
        (Probe.Op_started
           { time = 210; core = 7; tid = 2; addr = 0xc0; home = None });
      emit (Probe.Op_ended { time = 300; core = 7; tid = 2 });
      match spans_of r with
      | [ hit; remote ] ->
          Alcotest.(check bool) "home hit class" true
            (Capture.classify hit = Capture.Home_hit);
          Alcotest.(check int) "home hit queue" 5 (Capture.queue hit);
          Alcotest.(check int) "home hit migrate" 0 (Capture.migrate hit);
          Alcotest.(check bool) "remote class" true
            (Capture.classify remote = Capture.Remote);
          let m = Recorder.metrics r in
          Alcotest.(check int) "two ops" 2 (Metrics.counter_value m "ops");
          Alcotest.(check int) "home_hit split" 1
            (Hist.count (Metrics.hist m "op/home_hit"));
          Alcotest.(check int) "remote split" 1
            (Hist.count (Metrics.hist m "op/remote"))
      | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans))

let test_span_nested () =
  with_recorder (fun r emit ->
      emit (Probe.Op_requested { time = 0; core = 0; tid = 9; addr = 0x40 });
      emit
        (Probe.Op_started { time = 5; core = 0; tid = 9; addr = 0x40; home = None });
      emit (Probe.Op_requested { time = 10; core = 0; tid = 9; addr = 0x80 });
      emit
        (Probe.Op_started { time = 12; core = 0; tid = 9; addr = 0x80; home = None });
      emit (Probe.Op_ended { time = 20; core = 0; tid = 9 });
      emit (Probe.Op_ended { time = 50; core = 0; tid = 9 });
      match spans_of r with
      | [ inner; outer ] ->
          Alcotest.(check int) "inner completes first" 0x80 inner.Capture.obj;
          Alcotest.(check int) "inner exec" 8 (Capture.exec inner);
          Alcotest.(check int) "outer addr" 0x40 outer.Capture.obj;
          Alcotest.(check int) "outer exec" 45 (Capture.exec outer)
      | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans))

let mem ~time =
  Probe.Mem { time; core = 0; tid = 0; kind = Probe.Load; addr = 0; len = 8 }

let lock = { Probe.lock_name = "l"; lock_addr = 0x1000 }

let test_mem_counted_not_recorded () =
  with_recorder (fun r emit ->
      for i = 1 to 10 do
        emit (mem ~time:i)
      done;
      emit
        (Probe.Lock_acquired
           { time = 11; core = 0; tid = 0; lock; contended = true });
      emit (Probe.Lock_released { time = 12; core = 0; tid = 0; lock });
      let m = Recorder.metrics r in
      Alcotest.(check int) "all counted" 10 (Metrics.counter_value m "mem/events");
      Alcotest.(check int) "lock counted" 1
        (Metrics.counter_value m "locks/handoffs");
      Alcotest.(check int) "no record written" 0
        (Telemetry.total_events (Recorder.capture r)))

(* --trace-sample N keeps the records of 1-in-N ops per requesting core;
   the metrics still see every op. *)
let test_span_sampling () =
  with_recorder ~sample:2 (fun r emit ->
      for i = 0 to 4 do
        let t0 = i * 100 in
        emit (Probe.Op_requested { time = t0; core = 1; tid = 1; addr = 0x40 });
        emit (Probe.Thread_moved { time = t0 + 5; tid = 1; from_core = 1; to_core = 2 });
        emit
          (Probe.Op_started
             { time = t0 + 9; core = 2; tid = 1; addr = 0x40; home = Some 2 });
        emit (Probe.Op_ended { time = t0 + 20; core = 2; tid = 1 })
      done;
      let spans, incomplete = Capture.spans (Recorder.capture r) in
      Alcotest.(check int) "metrics see every op" 5
        (Metrics.counter_value (Recorder.metrics r) "ops");
      Alcotest.(check (list int)) "ops 0, 2, 4 kept"
        [ 0; 200; 400 ]
        (List.map (fun s -> s.Capture.submit_ts) spans);
      Alcotest.(check int) "the rest leave no half-spans" 0 incomplete;
      List.iter
        (fun s ->
          Alcotest.(check int) "shipped from the requesting core" 1
            s.Capture.submit_sink;
          Alcotest.(check int) "landed at the start" (s.Capture.submit_ts + 9)
            s.Capture.ship_in_ts)
        spans);
  with_recorder ~sample:0 (fun r emit ->
      emit (Probe.Op_requested { time = 0; core = 0; tid = 1; addr = 0x40 });
      emit (Probe.Op_started { time = 1; core = 0; tid = 1; addr = 0x40; home = None });
      emit (Probe.Op_ended { time = 2; core = 0; tid = 1 });
      Alcotest.(check int) "sample 0 keeps no op records" 0
        (Telemetry.total_events (Recorder.capture r));
      Alcotest.(check int) "but counts the op" 1
        (Metrics.counter_value (Recorder.metrics r) "ops"))

(* Records of different sinks with equal stamps may merge in either
   order: a span gathers its token's records wherever they fall, so its
   start on a lower-numbered core at the request's own cycle builds the
   same span as any other order. As the recorder writes it, the op has
   no Ship_in: it lands as it starts. *)
let test_spans_ignore_tie_order () =
  let tel =
    Telemetry.create_simulated ~ring_capacity:16 ~sample:1 ~cores:4 ~ghz:2.0
  in
  let s3 = Telemetry.sink tel 3 and s1 = Telemetry.sink tel 1 in
  let token = Telemetry.op_submit_at s3 ~ts:10 ~obj:0x40 in
  Telemetry.record_at s3 ~ts:10 ~kind:Telemetry.Ship_out ~a:token ~b:0x40 ~c:1;
  Telemetry.record_at s1 ~ts:10 ~kind:Telemetry.Start ~a:token ~b:0x40 ~c:1;
  Telemetry.record_at s1 ~ts:30 ~kind:Telemetry.End ~a:token ~b:0x40 ~c:0;
  let events = Capture.merged_events tel in
  Alcotest.(check bool) "the start merges ahead of the request" true
    (events.(0).Capture.kind = Telemetry.Start);
  let rev = Array.of_list (List.rev (Array.to_list events)) in
  List.iter
    (fun (label, evs) ->
      match Capture.spans_of_events evs with
      | [ s ], 0 ->
          Alcotest.(check int) (label ^ ": submitted on core 3") 3
            s.Capture.submit_sink;
          Alcotest.(check int) (label ^ ": runs on core 1") 1 s.Capture.exec_sink;
          Alcotest.(check bool) (label ^ ": migrated") true
            (Capture.classify s = Capture.Migrated);
          Alcotest.(check int) (label ^ ": exec") 20 (Capture.exec s);
          Alcotest.(check int) (label ^ ": lands at the start") 10
            s.Capture.ship_in_ts
      | spans, n ->
          Alcotest.failf "%s: %d spans, %d incomplete" label (List.length spans) n)
    [ ("merged", events); ("reversed", rev) ]

(* ------------------------------------------------------------------ *)
(* A minimal JSON reader — just enough to assert the exported trace is
   well-formed and to walk its structure. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      value
    end
    else fail ("expected " ^ word)
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        let c = s.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          (if !pos >= n then fail "bad escape"
           else
             let e = s.[!pos] in
             advance ();
             match e with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'n' -> Buffer.add_char buf '\n'
             | 't' -> Buffer.add_char buf '\t'
             | 'r' -> Buffer.add_char buf '\r'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'u' ->
                 if !pos + 4 > n then fail "bad \\u";
                 pos := !pos + 4;
                 Buffer.add_char buf '?'
             | _ -> fail "bad escape");
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
    in
    go ()
  in
  let number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected number"
    else
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "malformed number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          elements []
        end
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> number ()
    | None -> fail "unexpected end"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let str_member key j =
  match member key j with Some (Str s) -> Some s | _ -> None

let num_member key j =
  match member key j with Some (Num f) -> Some f | _ -> None

(* ------------------------------------------------------------------ *)
(* Trace export shape, on a real (bounded, deterministic) run *)

let quickstart_recorded () =
  O2_experiments.Quickstart_exp.execute
    ~recorder_of:(fun engine -> Recorder.attach engine)
    ~quick:true ()

let test_metrics_match_simulator () =
  let result = quickstart_recorded () in
  let r = Option.get result.O2_experiments.Quickstart_exp.recorder in
  let m = Recorder.metrics r in
  (* the acceptance bar: the histogram table's op count equals the
     simulator's completed-op count exactly, not approximately *)
  Alcotest.(check int) "metrics ops == Coretime ops"
    result.O2_experiments.Quickstart_exp.ops
    (Metrics.counter_value m "ops");
  Alcotest.(check int) "op/latency count == ops"
    result.O2_experiments.Quickstart_exp.ops
    (Hist.count (Metrics.hist m "op/latency"));
  (* the class split partitions the ops *)
  let split =
    Hist.count (Metrics.hist m "op/home_hit")
    + Hist.count (Metrics.hist m "op/remote")
    + Hist.count (Metrics.hist m "op/migrated")
  in
  Alcotest.(check int) "class split partitions ops"
    result.O2_experiments.Quickstart_exp.ops split;
  Alcotest.(check int) "span count == ops (no drops at this size)"
    result.O2_experiments.Quickstart_exp.ops (List.length (spans_of r));
  Alcotest.(check int) "threads spawned" 16
    (Metrics.counter_value m "threads/spawned");
  Alcotest.(check bool) "some rebalance periods ran" true
    (Metrics.counter_value m "rebalance/periods" > 0)

let test_trace_export_shape () =
  let result = quickstart_recorded () in
  let r = Option.get result.O2_experiments.Quickstart_exp.recorder in
  let json =
    match parse_json (Trace_export.to_string (Recorded r)) with
    | j -> j
    | exception Bad_json msg -> Alcotest.failf "invalid JSON: %s" msg
  in
  let events =
    match member "traceEvents" json with
    | Some (Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let ph e = Option.value ~default:"?" (str_member "ph" e) in
  let spans = List.filter (fun e -> ph e = "X") events in
  let flows_s = List.filter (fun e -> ph e = "s") events in
  let flows_f = List.filter (fun e -> ph e = "f") events in
  let instants = List.filter (fun e -> ph e = "i") events in
  (* per-core op spans: every span sits on a core track, and the spans
     cover more than one core *)
  Alcotest.(check int) "one X span per completed op"
    result.O2_experiments.Quickstart_exp.ops (List.length spans);
  let span_cores =
    List.sort_uniq compare
      (List.filter_map (fun e -> num_member "tid" e) spans)
  in
  Alcotest.(check bool) "spans cover several cores" true
    (List.length span_cores > 4);
  List.iter
    (fun e ->
      (match num_member "dur" e with
      | Some d -> Alcotest.(check bool) "dur >= 0" true (d >= 0.0)
      | None -> Alcotest.fail "span without dur");
      match member "args" e with
      | Some args ->
          Alcotest.(check bool) "args carry the breakdown" true
            (num_member "queue_cycles" args <> None
            && num_member "migrate_cycles" args <> None
            && num_member "exec_cycles" args <> None
            && str_member "class" args <> None)
      | None -> Alcotest.fail "span without args")
    spans;
  (* at least one migration drawn as a flow arrow, ends paired by id *)
  Alcotest.(check bool) "at least one flow start" true (flows_s <> []);
  let ids which = List.sort compare (List.filter_map (num_member "id") which) in
  Alcotest.(check (list (float 1e-9))) "flow starts pair with finishes"
    (ids flows_s) (ids flows_f);
  (* the monitor's periods appear as global instant markers *)
  Alcotest.(check bool) "at least one rebalance instant" true
    (List.exists (fun e -> str_member "name" e = Some "rebalance") instants);
  (* track metadata names every core *)
  let thread_names =
    List.filter (fun e -> str_member "name" e = Some "thread_name") events
  in
  Alcotest.(check int) "one thread_name per core, plus the monitor" 17
    (List.length thread_names);
  (* drop accounting is surfaced *)
  match member "otherData" json with
  | Some od ->
      Alcotest.(check bool) "dropped_events reported" true
        (num_member "dropped_events" od <> None)
  | None -> Alcotest.fail "no otherData"

let test_trace_escaping_and_empty_timeline () =
  (* escape_json must keep arbitrary object names JSON-safe *)
  with_recorder (fun r emit ->
      emit (Probe.Op_requested { time = 0; core = 0; tid = 1; addr = 0x40 });
      emit
        (Probe.Op_started { time = 1; core = 0; tid = 1; addr = 0x40; home = None });
      emit (Probe.Op_ended { time = 10; core = 0; tid = 1 });
      match parse_json (Trace_export.to_string (Recorded r)) with
      | _ -> ()
      | exception Bad_json msg -> Alcotest.failf "invalid JSON: %s" msg);
  with_recorder (fun r _emit ->
      Alcotest.(check string) "empty timeline" "(no events recorded)\n"
        (Trace_export.ascii_timeline (Recorder.capture r)))

(* Dir_workload's directories all sit inside one Memsys extent (the FAT
   image): a decision instant names the directory it was about, as the
   scheduler named it, not the image. *)
let test_decision_names_directory () =
  let machine = O2_simcore.Machine.create O2_simcore.Config.amd16 in
  let engine = O2_runtime.Engine.create machine in
  let r = Recorder.attach engine in
  let ct = Coretime.create ~policy:Coretime.Policy.default engine () in
  let w =
    O2_workload.Dir_workload.build ct
      (O2_workload.Dir_workload.spec_for_data_kb ~kb:4096 ())
  in
  O2_workload.Dir_workload.spawn_threads w;
  O2_runtime.Engine.run ~until:2_000_000 engine;
  let events =
    match
      member "traceEvents" (parse_json (Trace_export.to_string (Recorded r)))
    with
    | Some (Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let objects =
    List.filter_map
      (fun e ->
        if str_member "cat" e = Some "decision" then
          Option.bind (member "args" e) (str_member "object")
        else None)
      events
  in
  Alcotest.(check bool) "some decisions" true (objects <> []);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is a directory") true
        (String.length name > 0 && name.[0] = '/'))
    objects

let test_ascii_timeline () =
  let result = quickstart_recorded () in
  let r = Option.get result.O2_experiments.Quickstart_exp.recorder in
  let timeline = Trace_export.ascii_timeline ~width:60 (Recorder.capture r) in
  let lines = String.split_on_char '\n' timeline in
  Alcotest.(check bool) "a lane per core plus monitor plus header" true
    (List.length lines >= 16 + 3);
  Alcotest.(check bool) "op coverage drawn" true (String.contains timeline '#');
  Alcotest.(check bool) "migrations drawn" true (String.contains timeline '>');
  Alcotest.(check bool) "monitor periods drawn" true
    (String.contains timeline 'R');
  Alcotest.(check bool) "monitor lane present" true
    (List.exists
       (fun l -> String.length l >= 7 && String.sub l 0 7 = "monitor")
       lines)

let test_o2top_render () =
  let result = quickstart_recorded () in
  let r = Option.get result.O2_experiments.Quickstart_exp.recorder in
  let out = O2top.render (Recorder.metrics r) in
  let contains sub =
    let n = String.length out and m = String.length sub in
    let rec go i = i + m <= n && (String.sub out i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "histogram section" true
    (contains "latency histograms");
  Alcotest.(check bool) "op/latency row" true (contains "op/latency");
  Alcotest.(check bool) "counters section" true (contains "counters");
  Alcotest.(check bool) "ops counter row" true (contains "ops");
  Alcotest.(check bool) "gauges by default" true (contains "core00/");
  let no_gauges = O2top.render ~gauges:false (Recorder.metrics r) in
  let contains_ng sub =
    let n = String.length no_gauges and m = String.length sub in
    let rec go i =
      i + m <= n && (String.sub no_gauges i m = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "gauges suppressed" false (contains_ng "core00/")

(* ------------------------------------------------------------------ *)
(* Hist.merge as a property: merging must be indistinguishable from
   having fed one histogram the concatenated samples — exact stats and
   every percentile, not just the counters. *)

let hist_of_list l =
  let h = Hist.create () in
  List.iter (Hist.add h) l;
  h

let same_hist_stats a b =
  Hist.count a = Hist.count b
  && Hist.sum a = Hist.sum b
  && Hist.min_value a = Hist.min_value b
  && Hist.max_value a = Hist.max_value b
  && Hist.p50 a = Hist.p50 b
  && Hist.p90 a = Hist.p90 b
  && Hist.p99 a = Hist.p99 b
  && Hist.p999 a = Hist.p999 b

let prop_hist_merge_is_concat =
  QCheck2.Test.make ~name:"Hist.merge_into = histogram of the concatenation"
    ~count:300
    QCheck2.Gen.(
      pair (list (int_bound 2_000_000)) (list (int_bound 2_000_000)))
    (fun (xs, ys) ->
      let merged = hist_of_list xs in
      Hist.merge_into ~into:merged (hist_of_list ys);
      same_hist_stats merged (hist_of_list (xs @ ys)))

let test_hist_merge_empty_identity () =
  let samples = [ 3; 17; 900; 4096 ] in
  let a = hist_of_list samples in
  Hist.merge_into ~into:a (Hist.create ());
  Alcotest.(check bool) "merging an empty histogram changes nothing" true
    (same_hist_stats a (hist_of_list samples));
  let b = Hist.create () in
  Hist.merge_into ~into:b (hist_of_list samples);
  Alcotest.(check bool) "merging into an empty histogram copies" true
    (same_hist_stats b (hist_of_list samples))

(* ------------------------------------------------------------------ *)
(* Trace-export edge cases: the JSON must stay schema-valid when the
   recorder saw nothing, when it saw memory traffic but no completed op,
   and when the stream was rebalance instants alone. *)

let parse_or_fail r ?occupancy () =
  match parse_json (Trace_export.to_string ?occupancy (Recorded r)) with
  | j -> j
  | exception Bad_json msg -> Alcotest.failf "invalid JSON: %s" msg

let events_of json =
  match member "traceEvents" json with
  | Some (Arr evs) -> evs
  | _ -> Alcotest.fail "no traceEvents array"

(* The capture and the metrics come from one span model: on quickstart
   the spans rebuilt from the recorder's sinks split into the same
   classes, with the same cycle sums, as the live histograms. *)
let test_capture_matches_metrics () =
  let result = quickstart_recorded () in
  let r = Option.get result.O2_experiments.Quickstart_exp.recorder in
  let m = Recorder.metrics r in
  let spans, incomplete = Capture.spans (Recorder.capture r) in
  let count c = List.length (List.filter (fun s -> Capture.classify s = c) spans) in
  let sum f = List.fold_left (fun a s -> a + f s) 0 spans in
  let hist name = Metrics.hist m name in
  Alcotest.(check int) "nothing incomplete" 0 incomplete;
  Alcotest.(check int) "home-hit" (Hist.count (hist "op/home_hit"))
    (count Capture.Home_hit);
  Alcotest.(check int) "remote" (Hist.count (hist "op/remote")) (count Capture.Remote);
  Alcotest.(check int) "migrated" (Hist.count (hist "op/migrated"))
    (count Capture.Migrated);
  Alcotest.(check int) "queue" (Hist.sum (hist "op/queue")) (sum Capture.queue);
  Alcotest.(check int) "migrate" (Hist.sum (hist "op/migrate")) (sum Capture.migrate);
  Alcotest.(check int) "exec" (Hist.sum (hist "op/exec")) (sum Capture.exec);
  Alcotest.(check int) "latency"
    (Hist.sum (hist "op/latency"))
    (sum (fun s -> s.Capture.end_ts - s.Capture.submit_ts));
  List.iter
    (fun s ->
      if Capture.shipped s then
        Alcotest.(check bool) "a migrated op runs on its home" true
          (s.Capture.home = s.Capture.exec_sink))
    spans

(* A wall-clock capture goes through the same exporter: its stamps are
   rebased to the first record and labelled as nanoseconds, its last
   track is the coordinator, and a ship draws one flow arrow. *)
let test_wall_clock_export () =
  let tel = Telemetry.create ~ring_capacity:16 ~domains:2 () in
  let d0 = Telemetry.sink tel 0 and d1 = Telemetry.sink tel 1 in
  let base = 1_000_000_000 in
  let token = Telemetry.op_submit_at d0 ~ts:base ~obj:7 in
  Telemetry.record_at d0 ~ts:(base + 1000) ~kind:Telemetry.Ship_out ~a:token ~b:7 ~c:1;
  Telemetry.record_at d1 ~ts:(base + 3000) ~kind:Telemetry.Ship_in ~a:token ~b:7 ~c:0;
  Telemetry.record_at d1 ~ts:(base + 3500) ~kind:Telemetry.Start ~a:token ~b:7 ~c:1;
  Telemetry.record_at d1 ~ts:(base + 5500) ~kind:Telemetry.End ~a:token ~b:7 ~c:0;
  Telemetry.note_quiesce (Telemetry.coordinator tel);
  let json =
    match parse_json (Trace_export.to_string (Raw tel)) with
    | j -> j
    | exception Bad_json msg -> Alcotest.failf "invalid JSON: %s" msg
  in
  let events = events_of json in
  let with_ph p = List.filter (fun e -> str_member "ph" e = Some p) events in
  (match List.filter (fun e -> str_member "cat" e = Some "op") events with
  | [ op ] ->
      Alcotest.(check (option (float 1e-9))) "rebased start" (Some 3.5)
        (num_member "ts" op);
      Alcotest.(check (option (float 1e-9))) "exec in us" (Some 2.0)
        (num_member "dur" op);
      Alcotest.(check (option string)) "class" (Some "migrated")
        (Option.bind (member "args" op) (str_member "class"));
      Alcotest.(check (option (float 1e-9))) "migrate_ns" (Some 2500.0)
        (Option.bind (member "args" op) (num_member "migrate_ns"))
  | ops -> Alcotest.failf "expected 1 op span, got %d" (List.length ops));
  Alcotest.(check int) "one flow start" 1 (List.length (with_ph "s"));
  Alcotest.(check int) "one flow end" 1 (List.length (with_ph "f"));
  Alcotest.(check bool) "coordinator track" true
    (List.exists
       (fun e ->
         str_member "name" e = Some "thread_name"
         && Option.bind (member "args" e) (str_member "name") = Some "coordinator")
       events);
  match member "otherData" json with
  | Some od ->
      Alcotest.(check (option string)) "unit" (Some "wall-clock ns")
        (str_member "time_unit" od);
      Alcotest.(check (option string)) "clock" (Some "CLOCK_MONOTONIC")
        (str_member "clock" od)
  | None -> Alcotest.fail "no otherData"

let test_trace_export_empty () =
  with_recorder (fun r _emit ->
      let json = parse_or_fail r () in
      let events = events_of json in
      Alcotest.(check bool) "no spans in an empty trace" true
        (List.for_all (fun e -> str_member "ph" e <> Some "X") events);
      Alcotest.(check bool) "metadata still names the cores" true
        (List.exists (fun e -> str_member "name" e = Some "thread_name") events);
      match member "otherData" json with
      | Some od ->
          Alcotest.(check (option (float 1e-9))) "zero events retained"
            (Some 0.0) (num_member "events_retained" od);
          Alcotest.(check (option (float 1e-9))) "zero spans" (Some 0.0)
            (num_member "spans_complete" od)
      | None -> Alcotest.fail "no otherData")

let test_trace_export_no_completed_ops () =
  with_recorder (fun r emit ->
      for i = 1 to 5 do
        emit (mem ~time:i)
      done;
      (* an op that never ends must not fabricate a span *)
      emit (Probe.Op_requested { time = 10; core = 0; tid = 1; addr = 0x40 });
      emit
        (Probe.Op_started
           { time = 12; core = 0; tid = 1; addr = 0x40; home = None });
      let json = parse_or_fail r () in
      Alcotest.(check bool) "no X spans without Op_ended" true
        (List.for_all
           (fun e -> str_member "ph" e <> Some "X")
           (events_of json));
      Alcotest.(check int) "span count zero" 0 (List.length (spans_of r)))

let test_trace_export_rebalance_only () =
  with_recorder (fun r emit ->
      emit (Probe.Rebalanced { time = 1000; moves = 2; demotions = 1 });
      emit (Probe.Rebalanced { time = 2000; moves = 0; demotions = 0 });
      let json = parse_or_fail r () in
      let instants =
        List.filter
          (fun e ->
            str_member "ph" e = Some "i"
            && str_member "name" e = Some "rebalance")
          (events_of json)
      in
      Alcotest.(check int) "one instant per period" 2 (List.length instants))

(* ------------------------------------------------------------------ *)
(* The cache observatory on the quickstart run: occupancy mirror audit,
   heat attribution, decision provenance, and their trace/report faces. *)

let quickstart_observed () =
  let occ = ref None and heat = ref None and prov = ref None in
  let result =
    O2_experiments.Quickstart_exp.execute
      ~recorder_of:(fun engine -> Recorder.attach engine)
      ~attach:(fun ct ->
        let engine = Coretime.engine ct in
        occ :=
          Some
            (Occupancy.attach ~interval:200_000
               (O2_runtime.Engine.machine engine));
        heat := Some (Heat.attach engine);
        prov := Some (Provenance.attach engine))
      ~quick:true ()
  in
  (result, Option.get !occ, Option.get !heat, Option.get !prov)

let test_occupancy_tracker () =
  let _result, occ, _heat, _prov = quickstart_observed () in
  (match Occupancy.check occ with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "occupancy mirror drifted: %s" msg);
  Alcotest.(check bool) "data still on chip" true (Occupancy.distinct_lines occ > 0);
  Alcotest.(check bool) "timeline sampled" true (Occupancy.samples occ <> []);
  List.iter
    (fun (s : Occupancy.sample) ->
      Alcotest.(check int) "sample width = cache count"
        (Occupancy.cache_count occ)
        (Array.length s.Occupancy.lines))
    (Occupancy.samples occ)

let test_heat_tracker () =
  let result, _occ, heat, _prov = quickstart_observed () in
  let rows = Heat.tracked heat in
  Alcotest.(check bool) "objects tracked" true (rows <> []);
  Alcotest.(check int) "heat ops sum = completed ops"
    result.O2_experiments.Quickstart_exp.ops
    (List.fold_left (fun a r -> a + r.Heat.ops) 0 rows);
  let churn (r : Heat.row) = r.Heat.remote + r.Heat.dram in
  let top = Heat.top_k heat 3 in
  Alcotest.(check bool) "top_k bounded" true (List.length top <= 3);
  let rec sorted = function
    | a :: (b :: _ as tl) -> churn a >= churn b && sorted tl
    | _ -> true
  in
  Alcotest.(check bool) "top_k ordered by off-core traffic" true (sorted top);
  Alcotest.(check int) "nothing unattributed in quickstart" 0
    (Heat.unattributed heat)

let test_provenance_records () =
  let result, _occ, _heat, prov = quickstart_observed () in
  Alcotest.(check bool) "decisions captured" true (Provenance.count prov > 0);
  Alcotest.(check int) "nothing dropped at this size" 0
    (Provenance.dropped prov);
  let promotions =
    List.filter
      (fun r ->
        match r.Provenance.decision with
        | Probe.Promoted _ -> true
        | _ -> false)
      (Provenance.records prov)
  in
  Alcotest.(check int) "one Promoted record per simulator promotion"
    result.O2_experiments.Quickstart_exp.promotions
    (List.length promotions);
  let out = Provenance.render prov in
  let contains sub =
    let n = String.length out and m = String.length sub in
    let rec go i = i + m <= n && (String.sub out i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "promotion explained" true (contains "promote");
  Alcotest.(check bool) "inputs line present" true (contains "inputs:");
  Alcotest.(check bool) "action line present" true (contains "action:");
  Alcotest.(check bool) "honest header" true
    (contains
       (Printf.sprintf "showing %d of %d decision(s)" (Provenance.count prov)
          (Provenance.total prov)))

let test_trace_occupancy_tracks () =
  (* export the run's recorder with the occupancy timeline merged in *)
  let result, occ2, _heat, _prov = quickstart_observed () in
  let rec_ = Option.get result.O2_experiments.Quickstart_exp.recorder in
  let json = parse_or_fail rec_ ~occupancy:occ2 () in
  let events = events_of json in
  let counters =
    List.filter
      (fun e ->
        str_member "ph" e = Some "C"
        &&
        match str_member "name" e with
        | Some n -> String.length n >= 4 && String.sub n 0 4 = "occ/"
        | None -> false)
      events
  in
  Alcotest.(check int) "one counter event per (sample, cache)"
    (List.length (Occupancy.samples occ2) * Occupancy.cache_count occ2)
    (List.length counters);
  List.iter
    (fun e ->
      match member "args" e with
      | Some args ->
          Alcotest.(check bool) "counter args carry lines and objects" true
            (num_member "lines" args <> None
            && num_member "objects" args <> None)
      | None -> Alcotest.fail "counter without args")
    counters;
  let decisions =
    List.filter
      (fun e ->
        str_member "ph" e = Some "i"
        &&
        match str_member "name" e with
        | Some n -> String.length n >= 9 && String.sub n 0 9 = "decision/"
        | None -> false)
      events
  in
  Alcotest.(check bool) "decision instants exported" true (decisions <> []);
  match member "otherData" json with
  | Some od ->
      Alcotest.(check (option (float 1e-9))) "occupancy sample count surfaced"
        (Some (float_of_int (List.length (Occupancy.samples occ2))))
        (num_member "occupancy_samples" od)
  | None -> Alcotest.fail "no otherData"

let test_o2top_recorder_footer () =
  let result = quickstart_recorded () in
  let r = Option.get result.O2_experiments.Quickstart_exp.recorder in
  let out = O2top.render ~capture:(Recorder.capture r) (Recorder.metrics r) in
  let contains sub =
    let n = String.length out and m = String.length sub in
    let rec go i = i + m <= n && (String.sub out i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "recorder footer present" true
    (contains "-- recorder --");
  Alcotest.(check bool) "event drop accounting" true
    (contains "dropped by the ring bound");
  let without = O2top.render (Recorder.metrics r) in
  let contains_w sub =
    let n = String.length without and m = String.length sub in
    let rec go i =
      i + m <= n && (String.sub without i m = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "footer only with a capture" false
    (contains_w "-- recorder --")

(* Three ops of three records each on one core's sink of 4: the sink
   keeps the first op whole and the second's request (drop-newest). *)
let test_ring_bound_drops_spans () =
  with_recorder ~ring_capacity:4 (fun r emit ->
      for i = 0 to 2 do
        let t0 = i * 100 in
        emit (Probe.Op_requested { time = t0; core = 0; tid = 1; addr = 0x40 });
        emit
          (Probe.Op_started
             { time = t0 + 1; core = 0; tid = 1; addr = 0x40; home = None });
        emit (Probe.Op_ended { time = t0 + 10; core = 0; tid = 1 })
      done;
      let tel = Recorder.capture r in
      let spans, incomplete = Capture.spans tel in
      Alcotest.(check int) "metrics still exact" 3
        (Metrics.counter_value (Recorder.metrics r) "ops");
      Alcotest.(check (list int)) "the first span is kept" [ 0 ]
        (List.map (fun s -> s.Capture.submit_ts) spans);
      Alcotest.(check int) "a half-kept span is withheld" 1 incomplete;
      Alcotest.(check int) "record window bounded" 4
        (Telemetry.total_events tel - Telemetry.total_dropped tel);
      Alcotest.(check int) "record drops accounted" 5
        (Telemetry.total_dropped tel))

let suite =
  [
    Alcotest.test_case "ring keeps the most recent" `Quick test_ring;
    Alcotest.test_case "zero-capacity ring counts but retains nothing" `Quick
      test_ring_zero_capacity;
    Alcotest.test_case "histogram bucket boundaries" `Quick test_hist_buckets;
    Alcotest.test_case "histogram exact count/sum/min/max" `Quick
      test_hist_exact_stats;
    Alcotest.test_case "histogram percentile edge cases" `Quick
      test_hist_percentile_edges;
    Alcotest.test_case "histogram percentile spread" `Quick
      test_hist_percentile_spread;
    Alcotest.test_case "histogram merge" `Quick test_hist_merge;
    QCheck_alcotest.to_alcotest prop_hist_merge_is_concat;
    Alcotest.test_case "histogram merge with empty is identity" `Quick
      test_hist_merge_empty_identity;
    Alcotest.test_case "metrics registry and merge" `Quick test_metrics_registry;
    Alcotest.test_case "span reconstruction: migrated op" `Quick
      test_span_migrated;
    Alcotest.test_case "span reconstruction: home hit and remote" `Quick
      test_span_home_hit_and_remote;
    Alcotest.test_case "span reconstruction: nested ops" `Quick test_span_nested;
    Alcotest.test_case "memory and lock events only feed counters" `Quick
      test_mem_counted_not_recorded;
    Alcotest.test_case "span sampling keeps 1-in-N ops" `Quick
      test_span_sampling;
    Alcotest.test_case "spans ignore the merge's tie order" `Quick
      test_spans_ignore_tie_order;
    Alcotest.test_case "metrics agree with the simulator exactly" `Quick
      test_metrics_match_simulator;
    Alcotest.test_case "trace export is valid trace_event JSON" `Quick
      test_trace_export_shape;
    Alcotest.test_case "capture spans agree with the metrics" `Quick
      test_capture_matches_metrics;
    Alcotest.test_case "wall-clock capture through the same exporter" `Quick
      test_wall_clock_export;
    Alcotest.test_case "trace JSON stays valid; empty timeline message" `Quick
      test_trace_escaping_and_empty_timeline;
    Alcotest.test_case "decision instants name the directory" `Quick
      test_decision_names_directory;
    Alcotest.test_case "ascii timeline draws ops, migrations, monitor" `Quick
      test_ascii_timeline;
    Alcotest.test_case "o2top renders the three sections" `Quick
      test_o2top_render;
    Alcotest.test_case "bounded storage drops are accounted" `Quick
      test_ring_bound_drops_spans;
    Alcotest.test_case "empty trace exports schema-valid JSON" `Quick
      test_trace_export_empty;
    Alcotest.test_case "trace with no completed op has no spans" `Quick
      test_trace_export_no_completed_ops;
    Alcotest.test_case "rebalance-only trace keeps its instants" `Quick
      test_trace_export_rebalance_only;
    Alcotest.test_case "occupancy mirror audits against the caches" `Quick
      test_occupancy_tracker;
    Alcotest.test_case "heat attribution matches the simulator" `Quick
      test_heat_tracker;
    Alcotest.test_case "decision provenance captures and explains" `Quick
      test_provenance_records;
    Alcotest.test_case "occupancy counter tracks in the trace JSON" `Quick
      test_trace_occupancy_tracks;
    Alcotest.test_case "o2top recorder footer" `Quick test_o2top_recorder_footer;
  ]
