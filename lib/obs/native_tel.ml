(* Readers for the native backend's wall-clock flight recorder
   (O2_runtime.Telemetry): the quiescent-side half of the design. Each
   sink's ring is nondecreasing by construction (the writer clamps its
   stamps), so the global order is a k-way cursor merge with no sort —
   pick the smallest head timestamp, ties to the lower sink id, which
   makes the merged order total and deterministic for a fixed capture.

   Span reconstruction replays the merged stream: Submit opens a
   partial span keyed by its token, Ship_out / Ship_in / Start fill in
   the handoff, End completes it. A span whose events were partly
   dropped by the ring bound never sees its End (or sees End first) and
   is counted in [incomplete_spans] instead of being emitted half-built
   — drops are accounted, never papered over. *)

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
  let out = Array.make total { ts = 0; sink = 0; kind = Quiesce; a = 0; b = 0; c = 0 } in
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
  submit_sink : int;
  submit_ts : int;
  ship_out_ts : int;  (* -1 when the op ran at home *)
  ship_in_ts : int;
  ship_dst : int;
  exec_sink : int;
  start_ts : int;
  end_ts : int;
}

let spans_of_events events =
  let open_spans : (int, span) Hashtbl.t = Hashtbl.create 256 in
  let done_ = ref [] in
  let incomplete = ref 0 in
  Array.iter
    (fun e ->
      match e.kind with
      | Telemetry.Submit ->
          (* A token reused after a dropped End would shadow; tokens are
             unique per capture (sink id + sequence), so plain add. *)
          Hashtbl.replace open_spans e.a
            {
              token = e.a;
              obj = e.b;
              submit_sink = e.sink;
              submit_ts = e.ts;
              ship_out_ts = -1;
              ship_in_ts = -1;
              ship_dst = -1;
              exec_sink = -1;
              start_ts = -1;
              end_ts = -1;
            }
      | Telemetry.Ship_out -> (
          match Hashtbl.find_opt open_spans e.a with
          | Some s ->
              Hashtbl.replace open_spans e.a
                { s with ship_out_ts = e.ts; ship_dst = e.c }
          | None -> incr incomplete)
      | Telemetry.Ship_in -> (
          match Hashtbl.find_opt open_spans e.a with
          | Some s -> Hashtbl.replace open_spans e.a { s with ship_in_ts = e.ts }
          | None -> incr incomplete)
      | Telemetry.Start -> (
          match Hashtbl.find_opt open_spans e.a with
          | Some s ->
              Hashtbl.replace open_spans e.a
                { s with start_ts = e.ts; exec_sink = e.sink }
          | None -> incr incomplete)
      | Telemetry.End -> (
          match Hashtbl.find_opt open_spans e.a with
          | Some s when s.start_ts >= 0 ->
              Hashtbl.remove open_spans e.a;
              done_ := { s with end_ts = e.ts } :: !done_
          | Some _ ->
              Hashtbl.remove open_spans e.a;
              incr incomplete
          | None -> incr incomplete)
      | _ -> ())
    events;
  (* Whatever is still open lost its End to the ring bound. *)
  Hashtbl.iter (fun _ _ -> incr incomplete) open_spans;
  (List.rev !done_, !incomplete)

let spans tel = fst (spans_of_events (merged_events tel))
let incomplete_spans tel = snd (spans_of_events (merged_events tel))

let shipped s = s.ship_out_ts >= 0

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

(* ------------------------------------------------------------------ *)
(* Per-domain table                                                    *)

let domain_table tel =
  let open O2_stats in
  let t =
    Table.create
      ~columns:
        [
          ("domain", Table.Left);
          ("ops", Table.Right);
          ("steals", Table.Right);
          ("ships out", Table.Right);
          ("ships in", Table.Right);
          ("parks", Table.Right);
          ("inbox batches", Table.Right);
          ("inbox tasks", Table.Right);
          ("max batch", Table.Right);
          ("events", Table.Right);
          ("dropped", Table.Right);
        ]
  in
  let n = if Telemetry.enabled tel then Telemetry.domains tel else 0 in
  Telemetry.fold_sinks tel ~init:() ~f:(fun () s ->
      let id = Telemetry.sink_id s in
      let label = if id = n then "coordinator" else string_of_int id in
      Table.add_row t
        [
          label;
          string_of_int (Telemetry.ops_submitted s);
          string_of_int (Telemetry.steals s);
          string_of_int (Telemetry.ships_out s);
          string_of_int (Telemetry.ships_in s);
          string_of_int (Telemetry.parks s);
          string_of_int (Telemetry.inbox_batches s);
          string_of_int (Telemetry.inbox_tasks s);
          string_of_int (Telemetry.max_batch s);
          string_of_int (Telemetry.length s);
          string_of_int (Telemetry.dropped s);
        ]);
  Table.render t
