open O2_runtime
open O2_stats

(* The metric name left-aligned, every value column right-aligned. *)
let table header rows =
  let t =
    Table.create
      ~columns:
        (List.mapi
           (fun i h -> (h, if i = 0 then Table.Left else Table.Right))
           header)
  in
  List.iter (Table.add_row t) rows;
  Table.render t

let hist_row (name, h) =
  if Hist.count h = 0 then [ name; "0"; "-"; "-"; "-"; "-"; "-"; "-" ]
  else
    [ name; string_of_int (Hist.count h); Printf.sprintf "%.1f" (Hist.mean h) ]
    @ List.map (Printf.sprintf "%.0f")
        [ Hist.p50 h; Hist.p90 h; Hist.p99 h; Hist.p999 h ]
    @ [ string_of_int (Hist.max_value h) ]

let render ?(gauges = true) ?capture metrics =
  let buf = Buffer.create 2048 in
  let section title body =
    Buffer.add_string buf ("-- " ^ title ^ " --\n");
    Buffer.add_string buf body;
    Buffer.add_char buf '\n'
  in
  let table_section title header rows =
    if rows <> [] then section title (table header rows)
  in
  let units = Option.fold ~none:"cycles" ~some:Capture.time_unit capture in
  table_section
    ("latency histograms (" ^ units ^ ")")
    [ "histogram"; "count"; "mean"; "p50"; "p90"; "p99"; "p999"; "max" ]
    (List.map hist_row (Metrics.hists metrics));
  table_section "counters" [ "counter"; "value" ]
    (List.map
       (fun (n, v) -> [ n; string_of_int v ])
       (Metrics.counters metrics));
  if gauges then
    table_section "gauges (last monitor period)" [ "gauge"; "value" ]
      (List.map
         (fun (n, v) -> [ n; Printf.sprintf "%.3f" v ])
         (Metrics.gauges metrics));
  Option.iter
    (fun tel ->
      section "recorder"
        (Printf.sprintf "%s; 1-in-%d ops sampled\n" (Capture.accounting tel)
           (O2_runtime.Telemetry.sample tel)))
    capture;
  Buffer.contents buf

(* Column header and per-sink count, after the domain label. *)
let domain_columns =
  O2_runtime.Telemetry.
    [
      ("ops", ops_submitted);
      ("steals", steals);
      ("ships out", ships_out);
      ("ships in", ships_in);
      ("parks", parks);
      ("inbox batches", inbox_batches);
      ("inbox tasks", inbox_tasks);
      ("max batch", max_batch);
      ("events", length);
      ("dropped", dropped);
    ]

let domain_table tel =
  let open O2_runtime in
  let n = if Telemetry.enabled tel then Telemetry.domains tel else 0 in
  table
    ("domain" :: List.map fst domain_columns)
    (Telemetry.fold_sinks tel ~init:[] ~f:(fun rows s ->
         let id = Telemetry.sink_id s in
         ((if id = n then "coordinator" else string_of_int id)
         :: List.map (fun (_, count) -> string_of_int (count s)) domain_columns)
         :: rows)
    |> List.rev)
