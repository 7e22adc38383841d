open O2_simcore
open O2_workload

let make () =
  let machine = Machine.create Config.amd16 in
  let engine = O2_runtime.Engine.create machine in
  let ct = Coretime.create ~policy:Coretime.Policy.baseline engine () in
  (engine, ct)

let sorted_keys n = Array.init n (fun i -> (i * 3) + 1)

let load ?(fanout = 16) ct n =
  let t = Btree_store.create ct ~name:"t" ~fanout () in
  Btree_store.bulk_load t ~keys:(sorted_keys n) ~value_of:(fun k -> k * 10);
  t

let in_thread engine f =
  let result = ref None in
  ignore
    (O2_runtime.Engine.spawn engine ~core:0 ~name:"t" (fun () ->
         result := Some (f ())));
  O2_runtime.Engine.run engine;
  Option.get !result

let test_bulk_load_structure () =
  let _, ct = make () in
  let t = load ct 500 in
  Alcotest.(check bool) "invariants hold" true (Btree_store.check t = Ok ());
  Alcotest.(check int) "keys counted" 500 (Btree_store.key_count t);
  Alcotest.(check bool) "multiple levels" true (Btree_store.height t >= 2);
  Alcotest.(check bool) "leaves + internals" true
    (Btree_store.node_count t > Btree_store.leaf_count t)

let test_lookup_hits_and_misses () =
  let engine, ct = make () in
  let t = load ct 500 in
  let hits, misses =
    in_thread engine (fun () ->
        let hits = ref 0 and misses = ref 0 in
        for i = 0 to 499 do
          match Btree_store.lookup t ((i * 3) + 1) with
          | Some v when v = ((i * 3) + 1) * 10 -> incr hits
          | Some _ | None -> incr misses
        done;
        (* keys congruent to 0 mod 3 are absent *)
        for i = 0 to 99 do
          match Btree_store.lookup t (i * 3) with
          | None -> ()
          | Some _ -> incr misses
        done;
        (!hits, !misses))
  in
  Alcotest.(check int) "all present keys found with right values" 500 hits;
  Alcotest.(check int) "no false hits" 0 misses

let test_lookup_charges_cycles () =
  let engine, ct = make () in
  let t = load ct 2000 in
  ignore
    (in_thread engine (fun () -> Btree_store.lookup t 1));
  Alcotest.(check bool) "descent cost charged" true
    (O2_runtime.Engine.core_clock engine 0 > 0)

let test_bulk_load_validation () =
  let _, ct = make () in
  let t = Btree_store.create ct ~name:"t" ~fanout:8 () in
  Alcotest.(check bool) "unsorted rejected" true
    (match Btree_store.bulk_load t ~keys:[| 3; 1 |] ~value_of:Fun.id with
    | () -> false
    | exception Invalid_argument _ -> true);
  Btree_store.bulk_load t ~keys:[| 1; 2 |] ~value_of:Fun.id;
  Alcotest.(check bool) "double load rejected" true
    (match Btree_store.bulk_load t ~keys:[| 5 |] ~value_of:Fun.id with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_nodes_registered_as_objects () =
  let _, ct = make () in
  let t = load ct 300 in
  Alcotest.(check int) "every node is a CoreTime object"
    (Btree_store.node_count t)
    (Coretime.Object_table.size (Coretime.table ct))

let prop_lookup_matches_membership =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"btree lookup = membership in loaded keys" ~count:25
       QCheck2.Gen.(
         pair (int_range 1 400) (list_size (int_bound 40) (int_bound 2000)))
       (fun (n, probes) ->
         let _, ct = make () in
         let machine = Coretime.engine ct in
         let t = load ct n in
         let keyset = Array.to_list (sorted_keys n) in
         let ok = ref true in
         ignore
           (O2_runtime.Engine.spawn machine ~core:0 ~name:"t" (fun () ->
                List.iter
                  (fun p ->
                    let expected =
                      if List.mem p keyset then Some (p * 10) else None
                    in
                    if Btree_store.lookup t p <> expected then ok := false)
                  probes));
         O2_runtime.Engine.run machine;
         !ok))

let suite =
  [
    Alcotest.test_case "bulk load builds a valid tree" `Quick test_bulk_load_structure;
    Alcotest.test_case "lookups hit and miss correctly" `Quick test_lookup_hits_and_misses;
    Alcotest.test_case "lookups cost cycles" `Quick test_lookup_charges_cycles;
    Alcotest.test_case "bulk load validation" `Quick test_bulk_load_validation;
    Alcotest.test_case "nodes are CoreTime objects" `Quick test_nodes_registered_as_objects;
    prop_lookup_matches_membership;
  ]
