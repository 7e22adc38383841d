open O2_simcore
open O2_workload
open O2_stats

let run ~quick ~jobs ppf =
  Format.fprintf ppf
    "@.=== E10: a future 64-core multicore (scarcer bandwidth, cheap \
     migration) ===@.@.";
  Format.fprintf ppf "%a@.@." Config.pp Config.future64;
  let sizes = if quick then [ 24576 ] else [ 8192; 24576 ] in
  let measure = Harness.scaled ~quick 30_000_000 in
  let t =
    Table.create
      ~columns:
        [
          ("data (KB)", Table.Right);
          ("without CT", Table.Right);
          ("with CT", Table.Right);
          ("speedup", Table.Right);
        ]
  in
  let cell policy kb =
    let spec = Dir_workload.spec_for_data_kb ~kb () in
    (* scarce bandwidth makes warming slow, and spreading hundreds of
       first-fit assignments across 64 cores takes the monitor many
       periods *)
    let warmup = Harness.scaled ~quick (60_000_000 + (kb * 6000)) in
    Harness.setup ~cfg:Config.future64 ~policy ~warmup ~measure spec
  in
  let cells =
    List.concat_map
      (fun kb -> [ cell Coretime.Policy.baseline kb; cell Coretime.Policy.default kb ])
      sizes
  in
  let points = Harness.run_cells ~jobs cells in
  let speedups = ref [] in
  let rec rows sizes points =
    match (sizes, points) with
    | [], [] -> ()
    | kb :: sizes, base :: ct :: points ->
        let sp = ct.Harness.kres_per_sec /. base.Harness.kres_per_sec in
        speedups := sp :: !speedups;
        Table.add_row t
          [
            string_of_int kb;
            Printf.sprintf "%.0f" base.Harness.kres_per_sec;
            Printf.sprintf "%.0f" ct.Harness.kres_per_sec;
            Printf.sprintf "%.2fx" sp;
          ];
        rows sizes points
    | _ -> assert false
  in
  rows sizes points;
  Format.pp_print_string ppf (Table.render t);
  (match Summary.of_list !speedups with
  | Some s ->
      Format.fprintf ppf
        "mean speedup %.2fx (the 16-core machine's beyond-L3 band is \
         ~2-3x): more cores per byte of off-chip bandwidth favour O2 \
         scheduling, as Section 6.1 predicts.@."
        s.Summary.mean
  | None -> ())
