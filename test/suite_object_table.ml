open Coretime

let table () = Object_table.create ~cores:4 ~budget_per_core:1000

let test_register_and_find () =
  let t = table () in
  let o = Object_table.register t ~base:0x1000 ~size:100 ~name:"a" () in
  Alcotest.(check bool) "found by base" true (Object_table.find t 0x1000 = Some o);
  Alcotest.(check bool) "miss" true (Object_table.find t 0x2000 = None);
  Alcotest.(check int) "one object" 1 (Object_table.size t);
  Alcotest.(check bool) "unassigned" true (o.Object_table.home = None)

let test_register_rejects () =
  let t = table () in
  ignore (Object_table.register t ~base:0x1000 ~size:100 ~name:"a" ());
  Alcotest.(check bool) "duplicate base" true
    (match Object_table.register t ~base:0x1000 ~size:1 ~name:"b" () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "zero size" true
    (match Object_table.register t ~base:0x3000 ~size:0 ~name:"c" () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_assign_accounting () =
  let t = table () in
  let a = Object_table.register t ~base:1 ~size:400 ~name:"a" () in
  let b = Object_table.register t ~base:2 ~size:500 ~name:"b" () in
  Object_table.assign t a 0;
  Object_table.assign t b 0;
  Alcotest.(check int) "used" 900 (Object_table.used t 0);
  Alcotest.(check int) "free" 100 (Object_table.free_space t 0);
  Alcotest.(check int) "assigned count" 2 (Object_table.assigned_count t);
  (* moving updates both cores *)
  Object_table.assign t b 2;
  Alcotest.(check int) "source released" 400 (Object_table.used t 0);
  Alcotest.(check int) "destination charged" 500 (Object_table.used t 2);
  Object_table.unassign t a;
  Object_table.unassign t a;
  Alcotest.(check int) "unassign idempotent" 0 (Object_table.used t 0);
  Alcotest.(check bool) "accounting invariant" true
    (Result.is_ok (Object_table.check_accounting t))

let test_fits_and_place () =
  let t = table () in
  let big = Object_table.register t ~base:1 ~size:900 ~name:"big" () in
  let small = Object_table.register t ~base:2 ~size:200 ~name:"small" () in
  Object_table.assign t big 0;
  Alcotest.(check bool) "small does not fit core 0" false
    (Object_table.fits t ~core:0 small);
  Alcotest.(check bool) "small fits core 1" true (Object_table.fits t ~core:1 small);
  Alcotest.(check bool) "can place somewhere" true (Object_table.can_place t small);
  Alcotest.(check (float 0.001)) "occupancy" 0.225 (Object_table.occupancy t)

(* [iter] and [fold] visit objects in registration order — pinned here. *)
let test_iter_fold_in_registration_order () =
  let t = table () in
  let names = [ "x"; "y"; "z" ] in
  List.iteri
    (fun i n -> ignore (Object_table.register t ~base:i ~size:1 ~name:n ()))
    names;
  Alcotest.(check (list string)) "fold keeps registration order" names
    (List.rev
       (Object_table.fold t (fun acc o -> o.Object_table.name :: acc) []));
  let seen = ref [] in
  Object_table.iter t (fun o -> seen := o.Object_table.name :: !seen);
  Alcotest.(check (list string)) "iter keeps registration order" names
    (List.rev !seen)

let names_assigned t core =
  List.rev
    (Object_table.fold_assigned t ~core (fun acc o ->
         o.Object_table.name :: acc) [])

(* Per-core assignment lists: membership tracks assign/unassign exactly,
   and [assigned] presents the union in registration order. *)
let test_assigned_lists () =
  let t = table () in
  let a = Object_table.register t ~base:1 ~size:10 ~name:"a" () in
  let b = Object_table.register t ~base:2 ~size:10 ~name:"b" () in
  let c = Object_table.register t ~base:3 ~size:10 ~name:"c" () in
  Object_table.assign t a 0;
  Object_table.assign t b 0;
  Object_table.assign t c 1;
  Alcotest.(check int) "core 0 holds two" 2
    (List.length (names_assigned t 0));
  Alcotest.(check (list string)) "core 1 holds c" [ "c" ] (names_assigned t 1);
  Alcotest.(check (list string)) "assigned is registration-ordered"
    [ "a"; "b" ]
    (List.map (fun o -> o.Object_table.name) (Object_table.assigned t ~core:0));
  (* moving relinks: off the old core's list, onto the new one *)
  Object_table.assign t b 1;
  Alcotest.(check bool) "b left core 0" true
    (not (List.mem "b" (names_assigned t 0)));
  Alcotest.(check bool) "b joined core 1" true
    (List.mem "b" (names_assigned t 1));
  Object_table.unassign t a;
  Alcotest.(check (list string)) "a unlinked" [] (names_assigned t 0);
  Alcotest.(check bool) "indexes consistent" true
    (Result.is_ok (Object_table.check_accounting t));
  (* removal-safe iteration: unassigning the visited object mid-walk *)
  Object_table.iter_assigned t ~core:1 (fun o -> Object_table.unassign t o);
  Alcotest.(check int) "core 1 drained in one pass" 0
    (Object_table.assigned_count t)

(* The active set: note_op enrolls an object exactly once, drain_active
   resets per-period counts and empties the list without touching
   never-operated objects. *)
let test_active_set () =
  let t = table () in
  let a = Object_table.register t ~base:1 ~size:10 ~name:"a" () in
  let b = Object_table.register t ~base:2 ~size:10 ~name:"b" () in
  ignore (Object_table.register t ~base:3 ~size:10 ~name:"c" ());
  Alcotest.(check int) "starts empty" 0 (Object_table.active_count t);
  Object_table.note_op t a;
  Object_table.note_op t a;
  Object_table.note_op t b;
  Alcotest.(check int) "two active" 2 (Object_table.active_count t);
  Alcotest.(check int) "ops_period counts" 2 a.Object_table.ops_period;
  Alcotest.(check int) "ops_total accumulates" 2 a.Object_table.ops_total;
  let seen = ref [] in
  Object_table.iter_active t (fun o -> seen := o.Object_table.name :: !seen);
  Alcotest.(check bool) "iter_active sees both" true
    (List.sort compare !seen = [ "a"; "b" ]);
  Object_table.drain_active t;
  Alcotest.(check int) "drained" 0 (Object_table.active_count t);
  Alcotest.(check int) "period reset" 0 a.Object_table.ops_period;
  Alcotest.(check int) "total survives" 2 a.Object_table.ops_total;
  (* re-enrollment after a drain works (the in_active flag was cleared) *)
  Object_table.note_op t b;
  Alcotest.(check int) "b re-enrolls" 1 (Object_table.active_count t);
  Alcotest.(check bool) "indexes consistent" true
    (Result.is_ok (Object_table.check_accounting t))

let prop_accounting_invariant =
  QCheck2.Test.make ~name:"budget accounting matches assignments" ~count:200
    QCheck2.Gen.(list_size (int_bound 100) (pair (int_bound 19) (int_bound 4)))
    (fun moves ->
      let t = Object_table.create ~cores:4 ~budget_per_core:100000 in
      let objs =
        Array.init 20 (fun i ->
            Object_table.register t ~base:i ~size:((i + 1) * 7) ~name:"o" ())
      in
      List.iter
        (fun (oi, core) ->
          if core = 4 then Object_table.unassign t objs.(oi)
          else Object_table.assign t objs.(oi) core)
        moves;
      Result.is_ok (Object_table.check_accounting t))

let suite =
  [
    Alcotest.test_case "register and find" `Quick test_register_and_find;
    Alcotest.test_case "register rejects bad input" `Quick test_register_rejects;
    Alcotest.test_case "assignment accounting" `Quick test_assign_accounting;
    Alcotest.test_case "fits / can_place / occupancy" `Quick test_fits_and_place;
    Alcotest.test_case "iter and fold keep registration order" `Quick
      test_iter_fold_in_registration_order;
    Alcotest.test_case "per-core assignment lists" `Quick test_assigned_lists;
    Alcotest.test_case "active set via note_op / drain_active" `Quick
      test_active_set;
    QCheck_alcotest.to_alcotest prop_accounting_invariant;
  ]
