open Coretime

let item key bytes heat = { Cache_packing.key; bytes; heat }

let test_pack_hottest_first () =
  let items = [ item 1 600 1.0; item 2 600 3.0; item 3 600 2.0 ] in
  let placed, unplaced =
    Cache_packing.pack ~budget:1000 ~used:(Array.make 2 0) ~items
  in
  (* hottest (2) takes core 0; next (3) core 1; coldest (1) cannot fit *)
  Alcotest.(check (list (pair int int))) "placement"
    [ (2, 0); (3, 1) ]
    (List.map (fun (it, c) -> (it.Cache_packing.key, c)) placed);
  Alcotest.(check (list int)) "unplaced" [ 1 ]
    (List.map (fun it -> it.Cache_packing.key) unplaced)

let test_pack_respects_existing_use () =
  let used = [| 900; 0 |] in
  let placed, _ =
    Cache_packing.pack ~budget:1000 ~used ~items:[ item 1 500 1.0 ]
  in
  Alcotest.(check (list (pair int int))) "skips the full core" [ (1, 1) ]
    (List.map (fun (it, c) -> (it.Cache_packing.key, c)) placed);
  Alcotest.(check int) "input used untouched" 900 used.(0)

let test_pack_stable_on_ties () =
  let items = [ item 1 10 1.0; item 2 10 1.0; item 3 10 1.0 ] in
  let placed, _ = Cache_packing.pack ~budget:20 ~used:(Array.make 2 0) ~items in
  Alcotest.(check (list (pair int int))) "registration order on equal heat"
    [ (1, 0); (2, 0); (3, 1) ]
    (List.map (fun (it, c) -> (it.Cache_packing.key, c)) placed)

let test_place_one_first_fit () =
  let used = [| 900; 100; 0 |] in
  Alcotest.(check (option int)) "lowest core with space" (Some 1)
    (Cache_packing.place_one ~placement:Policy.First_fit ~budget:1000 ~used
       ~bytes:500 ())

let test_place_one_least_loaded () =
  let used = [| 900; 100; 0 |] in
  Alcotest.(check (option int)) "emptiest" (Some 2)
    (Cache_packing.place_one ~placement:Policy.Least_loaded ~budget:1000 ~used
       ~bytes:500 ());
  Alcotest.(check (option int)) "ties break to lowest id" (Some 0)
    (Cache_packing.place_one ~placement:Policy.Least_loaded ~budget:1000
       ~used:[| 5; 5 |] ~bytes:1 ())

let test_place_one_none_when_full () =
  let used = [| 999; 999 |] in
  List.iter
    (fun placement ->
      Alcotest.(check (option int)) "no space" None
        (Cache_packing.place_one ~placement ~budget:1000 ~used ~bytes:5 ()))
    [ Policy.First_fit; Policy.Least_loaded; Policy.Random_fit 7 ]

let test_place_one_random_feasible () =
  let used = [| 999; 0; 999; 0 |] in
  for nonce = 1 to 50 do
    match
      Cache_packing.place_one ~nonce ~placement:(Policy.Random_fit 11)
        ~budget:1000 ~used ~bytes:500 ()
    with
    | Some c when c = 1 || c = 3 -> ()
    | Some c -> Alcotest.failf "placed on full core %d" c
    | None -> Alcotest.fail "should fit"
  done;
  (* stateless: the same (seed, nonce) always lands on the same core *)
  let place nonce =
    Cache_packing.place_one ~nonce ~placement:(Policy.Random_fit 11)
      ~budget:1000 ~used ~bytes:500 ()
  in
  Alcotest.(check (option int)) "pure in (seed, nonce)" (place 7) (place 7)

let prop_never_over_budget =
  QCheck2.Test.make ~name:"pack never exceeds any core's budget" ~count:300
    QCheck2.Gen.(
      triple (int_range 1 1000)
        (list_size (int_bound 60) (pair (int_range 1 400) (float_range 0.0 10.0)))
        (int_range 1 8))
    (fun (budget, raw, cores) ->
      let items = List.mapi (fun i (b, h) -> item i b h) raw in
      let used = Array.make cores 0 in
      let placed, unplaced = Cache_packing.pack ~budget ~used ~items in
      let fill = Array.make cores 0 in
      List.iter
        (fun (it, c) -> fill.(c) <- fill.(c) + it.Cache_packing.bytes)
        placed;
      Array.for_all (fun u -> u <= budget) fill
      && List.length placed + List.length unplaced = List.length items)

let prop_unplaced_really_do_not_fit =
  QCheck2.Test.make ~name:"an unplaced item would not fit when it was tried"
    ~count:200
    QCheck2.Gen.(
      pair (int_range 1 500)
        (list_size (int_bound 40) (int_range 1 600)))
    (fun (budget, sizes) ->
      (* equal heat: pack tries items in order; greedy first fit means an
         unplaced item exceeds every core's remaining space at its turn,
         and with equal sizes processed in order that remains true at the
         end for the *largest* unplaced item *)
      let items = List.mapi (fun i b -> item i b 1.0) sizes in
      let placed, unplaced = Cache_packing.pack ~budget ~used:(Array.make 4 0) ~items in
      let fill = Array.make 4 0 in
      List.iter (fun (it, c) -> fill.(c) <- fill.(c) + it.Cache_packing.bytes) placed;
      List.for_all
        (fun it ->
          (* it must not fit in the final state either, since fills only grew *)
          Array.for_all (fun u -> u + it.Cache_packing.bytes > budget) fill)
        unplaced)

(* E5, the paper's Section 4 claim: cache packing is Θ(n log n). An 8x
   larger input should cost ~10.9x under n log n and 64x under n^2; the
   bound sits between the two. *)
let packing_items n =
  List.init n (fun i ->
      item i (1024 + (i mod 7 * 4096))
        (float_of_int ((i * 2654435761) land 0xFFFF)))

let test_pack_scales_n_log_n () =
  let time n =
    let items = packing_items n in
    let used = Array.make 16 0 in
    Timing.best_of_ns ~runs:7 (fun () ->
        for _ = 1 to 10 do
          ignore
            (Sys.opaque_identity
               (Cache_packing.pack ~budget:(1 lsl 20) ~used ~items))
        done)
  in
  let small = time 2048 and large = time 16384 in
  let ratio = float_of_int large /. float_of_int (Int.max 1 small) in
  Alcotest.(check bool)
    (Printf.sprintf "n=16384 / n=2048 = %.1fx (n log n: 10.9x, n^2: 64x)"
       ratio)
    true (ratio < 32.0)

let suite =
  [
    Alcotest.test_case "hottest objects pack first" `Quick test_pack_hottest_first;
    Alcotest.test_case "existing use respected" `Quick test_pack_respects_existing_use;
    Alcotest.test_case "deterministic on ties" `Quick test_pack_stable_on_ties;
    Alcotest.test_case "place_one first-fit" `Quick test_place_one_first_fit;
    Alcotest.test_case "place_one least-loaded" `Quick test_place_one_least_loaded;
    Alcotest.test_case "place_one with no space" `Quick test_place_one_none_when_full;
    Alcotest.test_case "place_one random stays feasible" `Quick test_place_one_random_feasible;
    Alcotest.test_case "pack scales as n log n" `Slow test_pack_scales_n_log_n;
    QCheck_alcotest.to_alcotest prop_never_over_budget;
    QCheck_alcotest.to_alcotest prop_unplaced_really_do_not_fit;
  ]
