(* The runtime monitor in isolation: stepping it by hand against a machine
   whose counters we set directly. *)

open O2_simcore
open Coretime

let setup ?(policy = Policy.default) () =
  let machine = Machine.create Config.amd16 in
  let table = Object_table.create ~cores:16 ~budget_per_core:(1 lsl 20) in
  let rb = Rebalancer.create policy table machine in
  (machine, table, rb)

let register table n ~size =
  Array.init n (fun i ->
      Object_table.register table ~base:(i * 1000) ~size ~name:(Printf.sprintf "o%d" i) ())

(* Per-period ops go through [note_op] so the table's active-set index
   sees them, exactly as [Coretime.ct_end] records real operations. *)
let operate table o n =
  for _ = 1 to n do
    Object_table.note_op table o
  done

let period = Policy.default.Policy.rebalance_period

let set_busy machine core ratio =
  let c = Machine.counters machine core in
  c.Counters.busy_cycles <-
    c.Counters.busy_cycles + int_of_float (ratio *. float_of_int period);
  c.Counters.idle_cycles <-
    c.Counters.idle_cycles
    + int_of_float ((1.0 -. ratio) *. float_of_int period)

let test_demotion_under_pressure () =
  let machine, table, rb = setup () in
  (* fill past the pressure threshold with idle objects *)
  let objs = register table 15 ~size:(1 lsl 20) in
  Array.iteri (fun i o -> Object_table.assign table o (i mod 16)) objs;
  Alcotest.(check bool) "pressured" true (Object_table.occupancy table > 0.8);
  Rebalancer.step rb ~now:period;
  Alcotest.(check int) "not yet (needs 2 idle periods)" 0
    (Rebalancer.stats rb).Rebalancer.demotions;
  Rebalancer.step rb ~now:(2 * period);
  Alcotest.(check int) "all idle objects demoted" 15
    (Rebalancer.stats rb).Rebalancer.demotions;
  Alcotest.(check int) "table empty" 0 (Object_table.assigned_count table);
  ignore machine

let test_no_demotion_without_pressure () =
  let _, table, rb = setup () in
  let objs = register table 4 ~size:(1 lsl 18) in
  Array.iter (fun o -> Object_table.assign table o 0) objs;
  Rebalancer.step rb ~now:period;
  Rebalancer.step rb ~now:(2 * period);
  Rebalancer.step rb ~now:(3 * period);
  Alcotest.(check int) "assignments persist" 4 (Object_table.assigned_count table);
  Alcotest.(check int) "no demotions" 0 (Rebalancer.stats rb).Rebalancer.demotions

let test_active_objects_not_demoted () =
  let _, table, rb = setup () in
  let objs = register table 15 ~size:(1 lsl 20) in
  Array.iteri (fun i o -> Object_table.assign table o (i mod 16)) objs;
  for _ = 1 to 3 do
    (* object 0 keeps operating; the others are idle *)
    operate table objs.(0) 10;
    Rebalancer.step rb ~now:(period * (1 + (Rebalancer.stats rb).Rebalancer.periods))
  done;
  Alcotest.(check bool) "active object kept" true
    (objs.(0).Object_table.home <> None)

let test_moves_off_saturated_core () =
  let machine, table, rb = setup () in
  let objs = register table 8 ~size:(1 lsl 16) in
  Array.iter (fun o -> Object_table.assign table o 0) objs;
  Array.iter (fun o -> operate table o 100) objs;
  set_busy machine 0 0.99;
  for core = 1 to 15 do
    set_busy machine core 0.05
  done;
  Rebalancer.step rb ~now:period;
  Alcotest.(check bool) "objects moved" true
    ((Rebalancer.stats rb).Rebalancer.moves > 0);
  Alcotest.(check bool) "core 0 relieved" true
    (List.length (Object_table.assigned table ~core:0) < 8);
  Alcotest.(check bool) "accounting still sound" true
    (Result.is_ok (Object_table.check_accounting table))

let test_balanced_cores_stay_put () =
  let machine, table, rb = setup () in
  let objs = register table 16 ~size:(1 lsl 16) in
  Array.iteri (fun i o -> Object_table.assign table o i) objs;
  Array.iter (fun o -> operate table o 100) objs;
  for core = 0 to 15 do
    set_busy machine core 0.5
  done;
  Rebalancer.step rb ~now:period;
  Alcotest.(check int) "no moves" 0 (Rebalancer.stats rb).Rebalancer.moves

let test_ops_period_reset () =
  let _, table, rb = setup () in
  let objs = register table 3 ~size:1000 in
  operate table objs.(1) 42;
  Alcotest.(check int) "42 ops pending" 42 objs.(1).Object_table.ops_period;
  Alcotest.(check int) "on the active list" 1 (Object_table.active_count table);
  Rebalancer.step rb ~now:period;
  Alcotest.(check int) "reset after the period" 0 objs.(1).Object_table.ops_period;
  Alcotest.(check int) "active list drained" 0 (Object_table.active_count table)

let test_displacement_for_hotter () =
  let policy = { Policy.default with Policy.evict_for_hotter = true } in
  let _, table, rb = setup ~policy () in
  (* a full table of cold objects, plus one hot unassigned object *)
  let cold = register table 16 ~size:(1 lsl 20) in
  Array.iteri (fun i o -> Object_table.assign table o i) cold;
  let hot =
    Object_table.register table ~base:999999 ~size:(1 lsl 20) ~name:"hot" ()
  in
  Array.iter (fun o -> operate table o 1) cold;
  operate table hot 50;
  Rebalancer.step rb ~now:period;
  Alcotest.(check bool) "hot displaced a cold object" true
    (hot.Object_table.home <> None);
  Alcotest.(check int) "one displacement" 1
    (Rebalancer.stats rb).Rebalancer.displacements;
  Alcotest.(check bool) "accounting sound" true
    (Result.is_ok (Object_table.check_accounting table))

(* One monitor period costs O(active set), not O(table): 64 objects
   operated on per period, with 1024 or 16384 registered. Equal times mean
   the full-scan term is gone; the pre-index scan was 14.6x slower at the
   larger table. *)
let test_step_cost_independent_of_table () =
  let time n =
    let machine = Machine.create Config.amd16 in
    let table = Object_table.create ~cores:16 ~budget_per_core:(1 lsl 20) in
    let objs =
      Array.init n (fun i ->
          Object_table.register table ~base:(i * 4096) ~size:4096 ~name:"o" ())
    in
    let stride = n / 64 in
    for k = 0 to 63 do
      Object_table.assign table objs.(k * stride) (k mod 16)
    done;
    let rb = Rebalancer.create Policy.default table machine in
    let now = ref 0 in
    Timing.best_of_ns ~runs:7 (fun () ->
        for _ = 1 to 200 do
          for k = 0 to 63 do
            Object_table.note_op table objs.(k * stride)
          done;
          now := !now + period;
          Rebalancer.step rb ~now:!now
        done)
  in
  let small = time 1024 and large = time 16384 in
  let ratio = float_of_int large /. float_of_int (Int.max 1 small) in
  Alcotest.(check bool)
    (Printf.sprintf "step time n=16384 / n=1024 = %.2fx" ratio)
    true (ratio < 4.0)

let suite =
  [
    Alcotest.test_case "stale objects demote under pressure" `Quick test_demotion_under_pressure;
    Alcotest.test_case "no pressure, no demotion" `Quick test_no_demotion_without_pressure;
    Alcotest.test_case "active objects survive demotion" `Quick test_active_objects_not_demoted;
    Alcotest.test_case "saturated cores shed objects" `Quick test_moves_off_saturated_core;
    Alcotest.test_case "balanced cores stay put" `Quick test_balanced_cores_stay_put;
    Alcotest.test_case "per-period op counts reset" `Quick test_ops_period_reset;
    Alcotest.test_case "frequency-aware replacement displaces cold objects" `Quick test_displacement_for_hotter;
    Alcotest.test_case "monitor step cost is independent of table size" `Slow
      test_step_cost_independent_of_table;
  ]
