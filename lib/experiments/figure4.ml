open O2_workload
open O2_stats

type row = {
  kb : int;
  dirs : int;
  without_ct : Harness.point;
  with_ct : Harness.point;
  occ_without : (int * int) option;
  occ_with : (int * int) option;
}

let oscillation_default = { Harness.period = 10_000_000; divisor = 16 }

let sweep ?(progress = fun _ -> ()) ?(jobs = 1) ?(metrics = false) ?occupancy
    ~quick ~oscillation () =
  (* oscillating runs measure longer so whole phase cycles average out *)
  let horizon_scale = match oscillation with None -> 2 | Some _ -> 3 in
  let cell policy kb =
    let spec = Dir_workload.spec_for_data_kb ~kb () in
    (* Warming a working set out of DRAM (and letting promotion and the
       monitor converge) takes time proportional to its size. *)
    let warmup = Harness.scaled ~quick (40_000_000 + (kb * 2500)) in
    Harness.setup ~policy ~warmup
      ~measure:(Harness.scaled ~quick (20_000_000 * horizon_scale))
      ?oscillation ~collect_metrics:metrics spec
  in
  let ladder = Harness.kb_ladder ~quick in
  progress
    (Printf.sprintf "  sweeping %d sizes x 2 policies (jobs=%d)..."
       (List.length ladder) jobs);
  (* Independent (kb, policy) cells, dispatched through the domain pool;
     points come back in input order, so re-zipping by ladder position
     reconstructs exactly the rows a sequential sweep would build. *)
  let cells =
    List.concat_map
      (fun kb -> [ cell Coretime.Policy.baseline kb; cell Coretime.Policy.default kb ])
      ladder
  in
  (* With the observatory on, every cell carries an occupancy tracker; the
     end-of-run chip state is read back per cell after the pool joins. The
     trackers only observe, so the points (and golden digests) are
     bit-identical with or without them. *)
  let occs = Array.make (List.length cells) None in
  let attach =
    Option.map
      (fun interval i engine ->
        occs.(i) <-
          Some
            (O2_obs.Occupancy.attach ~interval
               (O2_runtime.Engine.machine engine)))
      occupancy
  in
  let points = Harness.run_cells ?attach ~jobs cells in
  let occ i =
    Option.map
      (fun o -> (O2_obs.Occupancy.distinct_lines o, O2_obs.Occupancy.replicated o))
      occs.(i)
  in
  let rec zip i ladder points =
    match (ladder, points) with
    | [], [] -> []
    | kb :: ladder, without_ct :: with_ct :: points ->
        let spec = Dir_workload.spec_for_data_kb ~kb () in
        {
          kb;
          dirs = spec.Dir_workload.dirs;
          without_ct;
          with_ct;
          occ_without = occ (2 * i);
          occ_with = occ ((2 * i) + 1);
        }
        :: zip (i + 1) ladder points
    | _ -> invalid_arg "Figure4.sweep: cell/ladder mismatch"
  in
  zip 0 ladder points

let to_series rows =
  let mk label f =
    Series.make ~label
      (List.map (fun r -> (float_of_int r.kb, (f r).Harness.kres_per_sec)) rows)
  in
  (mk "with CoreTime" (fun r -> r.with_ct), mk "without CoreTime" (fun r -> r.without_ct))

let print_rows ppf rows =
  let open O2_stats in
  (* When cells carried a metrics recorder, append the measured-window
     operation-latency percentiles (cycles, with-CoreTime cell). *)
  let with_lat =
    List.exists (fun r -> r.with_ct.Harness.metrics <> None) rows
  in
  (* Occupancy columns (distinct lines on chip at the end of the cell)
     appear when the sweep ran with the observatory attached. *)
  let with_occ = List.exists (fun r -> r.occ_with <> None) rows in
  let t =
    Table.create
      ~columns:
        ([
           ("data (KB)", Table.Right);
           ("dirs", Table.Right);
           ("without CT (kres/s)", Table.Right);
           ("with CT (kres/s)", Table.Right);
           ("speedup", Table.Right);
           ("dram w/o", Table.Right);
           ("dram w/", Table.Right);
           ("migrations", Table.Right);
           ("moves", Table.Right);
         ]
        @ (if with_occ then
             [
               ("chip lines w/o", Table.Right);
               ("chip lines w/", Table.Right);
               ("replicated w/", Table.Right);
             ]
           else [])
        @
        if with_lat then
          [ ("op p50 (cyc)", Table.Right); ("op p99 (cyc)", Table.Right) ]
        else [])
  in
  List.iter
    (fun r ->
      let sp =
        if r.without_ct.Harness.kres_per_sec > 0.0 then
          r.with_ct.Harness.kres_per_sec /. r.without_ct.Harness.kres_per_sec
        else nan
      in
      let lat_cells =
        if not with_lat then []
        else
          match r.with_ct.Harness.metrics with
          | Some m ->
              let h = O2_obs.Metrics.hist m "op/latency" in
              if O2_obs.Hist.count h = 0 then [ "-"; "-" ]
              else
                [
                  Printf.sprintf "%.0f" (O2_obs.Hist.p50 h);
                  Printf.sprintf "%.0f" (O2_obs.Hist.p99 h);
                ]
          | None -> [ "-"; "-" ]
      in
      let occ_cells =
        if not with_occ then []
        else
          [
            (match r.occ_without with
            | Some (lines, _) -> string_of_int lines
            | None -> "-");
            (match r.occ_with with
            | Some (lines, _) -> string_of_int lines
            | None -> "-");
            (match r.occ_with with
            | Some (_, replicated) -> string_of_int replicated
            | None -> "-");
          ]
      in
      Table.add_row t
        ([
           string_of_int r.kb;
           string_of_int r.dirs;
           Printf.sprintf "%.0f" r.without_ct.Harness.kres_per_sec;
           Printf.sprintf "%.0f" r.with_ct.Harness.kres_per_sec;
           Printf.sprintf "%.2fx" sp;
           string_of_int r.without_ct.Harness.dram_loads;
           string_of_int r.with_ct.Harness.dram_loads;
           string_of_int r.with_ct.Harness.op_migrations;
           string_of_int r.with_ct.Harness.rebalancer_moves;
         ]
        @ occ_cells @ lat_cells))
    rows;
  Format.pp_print_string ppf (Table.render t)

let print_figure ppf ~title rows =
  Format.fprintf ppf "@.=== %s ===@.@." title;
  print_rows ppf rows;
  let with_ct, without_ct = to_series rows in
  Format.pp_print_newline ppf ();
  Format.pp_print_string ppf
    (Ascii_plot.render
       ~x_label:"Total data size (Kilobytes)"
       ~y_label:"1000s of resolutions per second"
       [ with_ct; without_ct ]);
  Format.pp_print_newline ppf ();
  Format.pp_print_string ppf (Harness.ratio_summary ~with_ct ~without_ct);
  Format.pp_print_newline ppf ()

let progress_to_stderr line =
  prerr_endline line

(* [--trace] on a figure re-runs one representative beyond-L3 cell (8 MB,
   CoreTime on) with a flight recorder attached for the whole run and
   writes the Perfetto JSON. Tracing a single short cell rather than the
   sweep keeps the file loadable and the sweep itself recorder-free. *)
let write_trace ~quick ~oscillation ~sample ~occupancy_interval ~path ppf =
  let kb = 8192 in
  let spec = Dir_workload.spec_for_data_kb ~kb () in
  (* Short horizon: enough for promotion, migrations, and several monitor
     periods; oscillation (if any) is compressed to fit the window. *)
  let oscillation =
    Option.map
      (fun o -> { o with Harness.period = Harness.scaled ~quick o.Harness.period })
      oscillation
  in
  let s =
    Harness.setup
      ~warmup:(Harness.scaled ~quick 8_000_000)
      ~measure:(Harness.scaled ~quick 8_000_000)
      ?oscillation spec
  in
  let recorder = ref None in
  let occ = ref None in
  ignore
    (Harness.run
       ~attach:(fun engine ->
         recorder := Some (O2_obs.Recorder.attach ~sample_mem:sample engine);
         occ :=
           Some
             (O2_obs.Occupancy.attach ~interval:occupancy_interval
                (O2_runtime.Engine.machine engine)))
       s);
  match !recorder with
  | None -> ()
  | Some r ->
      O2_obs.Trace_export.write_file ?occupancy:!occ r ~path;
      Format.fprintf ppf
        "trace: one %d KB CoreTime cell written to %s (%d spans, %d events \
         retained, %d dropped; occupancy counter tracks attached) — load in \
         https://ui.perfetto.dev@."
        kb path (O2_obs.Recorder.span_count r)
        (O2_obs.Recorder.events_retained r)
        (O2_obs.Recorder.events_dropped r)

let figure ~title ~oscillation ?(quick = false) ?(jobs = 1)
    ?(obs = Harness.no_obs) ppf =
  let rows =
    sweep ~progress:progress_to_stderr ~jobs ~quick ~metrics:obs.Harness.metrics
      ?occupancy:
        (if obs.Harness.occupancy then Some obs.Harness.occupancy_interval
         else None)
      ~oscillation ()
  in
  print_figure ppf ~title rows;
  match obs.Harness.trace with
  | Some path ->
      write_trace ~quick ~oscillation ~sample:obs.Harness.trace_sample
        ~occupancy_interval:obs.Harness.occupancy_interval ~path ppf
  | None -> ()

let fig4a ?quick ?jobs ?obs ppf =
  figure
    ~title:"Figure 4(a): file system results, uniform directory popularity"
    ~oscillation:None ?quick ?jobs ?obs ppf

let fig4b ?quick ?jobs ?obs ppf =
  figure
    ~title:
      "Figure 4(b): file system results, oscillating directory popularity"
    ~oscillation:(Some oscillation_default) ?quick ?jobs ?obs ppf
