open O2_stats

let test_summary () =
  match Summary.of_list [ 1.0; 2.0; 3.0; 4.0; 5.0 ] with
  | None -> Alcotest.fail "summary"
  | Some s ->
      Alcotest.(check int) "n" 5 s.Summary.n;
      Alcotest.(check (float 1e-9)) "mean" 3.0 s.Summary.mean;
      Alcotest.(check (float 1e-9)) "min" 1.0 s.Summary.min;
      Alcotest.(check (float 1e-9)) "max" 5.0 s.Summary.max;
      Alcotest.(check (float 1e-9)) "p50" 3.0 s.Summary.p50;
      Alcotest.(check (float 1e-9)) "p999" (1.0 +. (4.0 *. 0.999)) s.Summary.p999;
      Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.0) s.Summary.stddev

let test_summary_empty_and_percentile () =
  Alcotest.(check bool) "empty" true (Summary.of_list [] = None);
  let sorted = [| 10.0; 20.0 |] in
  Alcotest.(check (float 1e-9)) "interpolated" 15.0 (Summary.percentile sorted 0.5);
  Alcotest.(check (float 1e-9)) "q=0" 10.0 (Summary.percentile sorted 0.0);
  Alcotest.(check (float 1e-9)) "q=1" 20.0 (Summary.percentile sorted 1.0);
  (* a single sample answers every quantile with itself *)
  Alcotest.(check (float 1e-9)) "single q=0" 7.0 (Summary.percentile [| 7.0 |] 0.0);
  Alcotest.(check (float 1e-9)) "single q=0.5" 7.0 (Summary.percentile [| 7.0 |] 0.5);
  Alcotest.(check (float 1e-9)) "single q=1" 7.0 (Summary.percentile [| 7.0 |] 1.0);
  (match Summary.of_list [ 7.0 ] with
  | None -> Alcotest.fail "single-sample summary"
  | Some s ->
      Alcotest.(check (float 1e-9)) "single p50" 7.0 s.Summary.p50;
      Alcotest.(check (float 1e-9)) "single p999" 7.0 s.Summary.p999;
      Alcotest.(check (float 1e-9)) "single stddev" 0.0 s.Summary.stddev);
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Summary.percentile: empty") (fun () ->
      ignore (Summary.percentile [||] 0.5));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Summary.percentile: q out of range") (fun () ->
      ignore (Summary.percentile sorted 1.5))

let series l = Series.make ~label:"s" l

let test_series_sorted_and_lookup () =
  let s = series [ (3.0, 30.0); (1.0, 10.0); (2.0, 20.0) ] in
  Alcotest.(check (list (float 1e-9))) "xs sorted" [ 1.0; 2.0; 3.0 ] (Series.xs s);
  Alcotest.(check (option (float 1e-9))) "y_at hit" (Some 20.0) (Series.y_at s 2.0);
  Alcotest.(check (option (float 1e-9))) "y_at miss" None (Series.y_at s 2.5)

let test_series_ratio_and_crossover () =
  let a = series [ (1.0, 10.0); (2.0, 10.0); (3.0, 40.0) ] in
  let b = Series.make ~label:"b" [ (1.0, 20.0); (2.0, 10.0); (3.0, 10.0) ] in
  let r = Series.ratio ~num:a ~den:b in
  Alcotest.(check (option (float 1e-9))) "ratio at 3" (Some 4.0) (Series.y_at r 3.0);
  Alcotest.(check (option (float 1e-9))) "crossover between 1 and 3" (Some 3.0)
    (Series.crossover ~a ~b);
  let b2 = Series.make ~label:"b2" [ (1.0, 1.0); (2.0, 1.0); (3.0, 1.0) ] in
  Alcotest.(check (option (float 1e-9))) "no crossover" None
    (Series.crossover ~a:b2 ~b:b2)

let test_table_render () =
  let t = Table.create ~columns:[ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22222" ];
  let out = Table.render t in
  Alcotest.(check bool) "header present" true
    (String.length out > 0 && String.sub out 0 4 = "name");
  Alcotest.(check int) "2 data rows" 2 (Table.rows t);
  (* right alignment: "1" ends its column *)
  let lines = String.split_on_char '\n' out in
  let alpha_line = List.find (fun l -> String.length l > 0 && l.[0] = 'a') lines in
  Alcotest.(check bool) "right aligned" true
    (String.length alpha_line > 0
    && alpha_line.[String.length alpha_line - 1] = '1');
  Alcotest.check_raises "ragged row rejected"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "only-one" ])

let test_ascii_plot () =
  let s = series [ (0.0, 0.0); (5.0, 50.0); (10.0, 100.0) ] in
  let out = Ascii_plot.render ~width:40 ~height:10 [ s ] in
  Alcotest.(check bool) "non-empty" true (String.length out > 0);
  Alcotest.(check bool) "contains the glyph" true (String.contains out '*');
  Alcotest.(check string) "empty input" "" (Ascii_plot.render [])

let suite =
  [
    Alcotest.test_case "summary statistics" `Quick test_summary;
    Alcotest.test_case "summary edge cases" `Quick test_summary_empty_and_percentile;
    Alcotest.test_case "series sorting and lookup" `Quick test_series_sorted_and_lookup;
    Alcotest.test_case "series ratio and crossover" `Quick test_series_ratio_and_crossover;
    Alcotest.test_case "table rendering" `Quick test_table_render;
    Alcotest.test_case "ascii plot" `Quick test_ascii_plot;
  ]
