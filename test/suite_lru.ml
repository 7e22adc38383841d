(* Unit and property tests for the array-based LRU set. The property test
   drives it against a naive reference model (a list ordered
   most-recently-used first). *)

open O2_simcore

let check = Alcotest.check
let intopt = Alcotest.(option int)

let check_ok t =
  match Lru.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

let test_create_invalid () =
  Alcotest.check_raises "zero capacity" (Invalid_argument "Lru.create: capacity must be positive")
    (fun () -> ignore (Lru.create ~cap:0))

let test_add_and_mem () =
  let t = Lru.create ~cap:3 in
  check intopt "no eviction" None (Lru.add t 1);
  check intopt "no eviction" None (Lru.add t 2);
  check intopt "no eviction" None (Lru.add t 3);
  check Alcotest.bool "mem 1" true (Lru.mem t 1);
  check intopt "evicts lru (1)" (Some 1) (Lru.add t 4);
  check Alcotest.bool "1 gone" false (Lru.mem t 1);
  check Alcotest.int "length" 3 (Lru.length t)

let test_touch_protects () =
  let t = Lru.create ~cap:3 in
  List.iter (fun k -> ignore (Lru.add t k)) [ 1; 2; 3 ];
  check Alcotest.bool "touch 1" true (Lru.touch t 1);
  (* now 2 is least recently used *)
  check intopt "evicts 2" (Some 2) (Lru.add t 4);
  check Alcotest.bool "1 survives" true (Lru.mem t 1)

let test_add_present_is_touch () =
  let t = Lru.create ~cap:2 in
  ignore (Lru.add t 1);
  ignore (Lru.add t 2);
  check intopt "re-add touches, no evict" None (Lru.add t 1);
  check intopt "then 2 is the victim" (Some 2) (Lru.add t 3)

let test_remove () =
  let t = Lru.create ~cap:2 in
  ignore (Lru.add t 1);
  ignore (Lru.add t 2);
  check Alcotest.bool "removed" true (Lru.remove t 1);
  check Alcotest.bool "second remove false" false (Lru.remove t 1);
  check Alcotest.int "length" 1 (Lru.length t);
  check intopt "room again" None (Lru.add t 3)

let test_order () =
  let t = Lru.create ~cap:4 in
  List.iter (fun k -> ignore (Lru.add t k)) [ 1; 2; 3; 4 ];
  check Alcotest.(list int) "mru first" [ 4; 3; 2; 1 ] (Lru.to_list t);
  ignore (Lru.touch t 2);
  check Alcotest.(list int) "touched to front" [ 2; 4; 3; 1 ] (Lru.to_list t);
  check intopt "lru key" (Some 1) (Lru.lru_key t)

let test_capacity_one () =
  let t = Lru.create ~cap:1 in
  check intopt "fill" None (Lru.add t 1);
  check intopt "evict" (Some 1) (Lru.add t 2);
  check Alcotest.bool "only 2" true (Lru.mem t 2 && not (Lru.mem t 1))

(* cap=1 is the edge where the only node is both list ends: a push onto
   the empty list sets head and tail, and an unlink clears both.
   Exercise every operation at that size and re-check the structural
   invariants. *)
let test_capacity_one_full_cycle () =
  let t = Lru.create ~cap:1 in
  check Alcotest.int "no victim on first fill" (-1) (Lru.add_evict t 5);
  check_ok t;
  check Alcotest.bool "touch present" true (Lru.touch t 5);
  check intopt "re-add present just touches" None (Lru.add t 5);
  check Alcotest.int "still one key" 1 (Lru.length t);
  check Alcotest.int "full set evicts its only key" 5 (Lru.add_evict t 6);
  check_ok t;
  check intopt "lru is the sole key" (Some 6) (Lru.lru_key t);
  check Alcotest.bool "remove" true (Lru.remove t 6);
  check_ok t;
  check Alcotest.int "empty after remove" 0 (Lru.length t);
  check Alcotest.int "room again after remove" (-1) (Lru.add_evict t 7);
  check Alcotest.bool "holds the new key" true (Lru.mem t 7);
  check_ok t

(* One node is head and tail at once: touching it takes the MRU fast
   path, and each eviction empties the list before the new key links,
   whether the new key lands on the victim's page range (the page goes
   spare and straight back) or on another one. *)
let test_capacity_one_head_is_tail () =
  let t = Lru.create ~cap:1 in
  check Alcotest.int "first fill" (-1) (Lru.add_evict t 5);
  check Alcotest.bool "touch the sole node" true (Lru.touch t 5);
  check intopt "head = tail" (Some 5) (Lru.lru_key t);
  check Alcotest.int "same page range" 5 (Lru.add_evict t 6);
  check_ok t;
  check Alcotest.(list int) "only the new key" [ 6 ] (Lru.to_list t);
  check Alcotest.int "another page range" 6 (Lru.add_evict t 200);
  check_ok t;
  check intopt "head = tail again" (Some 200) (Lru.lru_key t);
  check Alcotest.(list int) "one key" [ 200 ] (Lru.to_list t);
  check Alcotest.bool "old page range empty" false (Lru.mem t 6)

(* An eviction that empties the victim's page releases it before the new
   key maps, so a new key on the same 64-key range takes the page
   straight back off the spare stack; one on another range takes it
   later. The invariants check that no page leaks either way. *)
let test_page_released_and_retaken () =
  let t = Lru.create ~cap:2 in
  ignore (Lru.add t 0);
  ignore (Lru.add t 64);
  check intopt "evicts the last node of page range 0" (Some 0) (Lru.add t 1);
  check_ok t;
  check Alcotest.(list int) "new key on the same range" [ 1; 64 ]
    (Lru.to_list t);
  check intopt "evicts the last node of page range 1" (Some 64) (Lru.add t 2);
  check_ok t;
  check intopt "range 1 takes the spare page back" (Some 1) (Lru.add t 65);
  check_ok t;
  check Alcotest.(list int) "recency order" [ 65; 2 ] (Lru.to_list t);
  check intopt "lru key" (Some 2) (Lru.lru_key t)

(* Reference model: MRU-first list. *)
module Model = struct
  type t = { cap : int; mutable l : int list }

  let create cap = { cap; l = [] }
  let mem m k = List.mem k m.l
  let touch m k =
    if mem m k then begin
      m.l <- k :: List.filter (( <> ) k) m.l;
      true
    end
    else false

  let add m k =
    if touch m k then None
    else begin
      let victim =
        if List.length m.l >= m.cap then begin
          let rec last = function
            | [ x ] -> x
            | _ :: tl -> last tl
            | [] -> assert false
          in
          let v = last m.l in
          m.l <- List.filter (( <> ) v) m.l;
          Some v
        end
        else None
      in
      m.l <- k :: m.l;
      victim
    end

  let remove m k =
    let present = mem m k in
    m.l <- List.filter (( <> ) k) m.l;
    present
end

type op = Add of int | Touch of int | Remove of int

let op_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun k -> Add k) (int_bound 40);
        map (fun k -> Touch k) (int_bound 40);
        map (fun k -> Remove k) (int_bound 40);
      ])

let prop_matches_model =
  QCheck2.Test.make ~name:"lru matches reference model" ~count:300
    QCheck2.Gen.(pair (int_range 1 12) (list_size (int_bound 200) op_gen))
    (fun (cap, ops) ->
      let t = Lru.create ~cap in
      let m = Model.create cap in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Add k -> Lru.add t k = Model.add m k
            | Touch k -> Lru.touch t k = Model.touch m k
            | Remove k -> Lru.remove t k = Model.remove m k
          in
          same
          && Lru.to_list t = m.Model.l
          && Result.is_ok (Lru.check_invariants t))
        ops)

(* Same model check with keys at the top of the 25-bit range: the page
   directory is indexed by [key lsr 6], so these keys grow it to 2^19
   entries, and [check_invariants] must stay cheap by visiting only live
   and spare pages. The 64-key pool is exactly one page, so the
   sequences fill, empty and refill it. *)
let wide_key_base = (1 lsl 25) - 64

let wide_op_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun k -> Add (wide_key_base + k)) (int_bound 63);
        map (fun k -> Touch (wide_key_base + k)) (int_bound 63);
        map (fun k -> Remove (wide_key_base + k)) (int_bound 63);
      ])

let prop_matches_model_wide_keys =
  QCheck2.Test.make ~name:"lru matches reference model (25-bit keys)"
    ~count:300
    QCheck2.Gen.(pair (int_range 1 12) (list_size (int_bound 200) wide_op_gen))
    (fun (cap, ops) ->
      let t = Lru.create ~cap in
      let m = Model.create cap in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Add k -> Lru.add t k = Model.add m k
            | Touch k -> Lru.touch t k = Model.touch m k
            | Remove k -> Lru.remove t k = Model.remove m k
          in
          same
          && Lru.to_list t = m.Model.l
          && Result.is_ok (Lru.check_invariants t))
        ops)

(* Keys on both sides of page boundaries (pages cover 64 keys): offsets
   0, 1, 62 and 63 of pages 0-3. Small capacities and removes empty
   pages, so they go to the spare stack and come back for other page
   ranges. *)

let paged_key_gen =
  QCheck2.Gen.(
    map2
      (fun page off -> (page * 64) + off)
      (int_bound 3)
      (oneofl [ 0; 1; 62; 63 ]))

let paged_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun k -> Add k) paged_key_gen);
        (2, map (fun k -> Touch k) paged_key_gen);
        (3, map (fun k -> Remove k) paged_key_gen);
      ])

let prop_matches_model_paged =
  QCheck2.Test.make
    ~name:"lru matches reference model (keys straddling pages)"
    ~count:300
    QCheck2.Gen.(pair (int_range 1 12) (list_size (int_bound 200) paged_op_gen))
    (fun (cap, ops) ->
      let t = Lru.create ~cap in
      let m = Model.create cap in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Add k -> Lru.add t k = Model.add m k
            | Touch k -> Lru.touch t k = Model.touch m k
            | Remove k -> Lru.remove t k = Model.remove m k
          in
          same
          && Lru.to_list t = m.Model.l
          && Result.is_ok (Lru.check_invariants t))
        ops)

(* The miss path's fill: probe, and on a miss [insert_absent] with no
   second lookup. Mixed with the other operations it must keep the
   structure sound and agree with the model's touch-then-add. *)
type fill_op = Plain of op | Fill of int

let fill_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun k -> Fill k) (int_bound 40));
        (3, map (fun o -> Plain o) op_gen);
      ])

let prop_insert_absent_matches_model =
  QCheck2.Test.make ~name:"lru insert_absent after a missed probe = model add"
    ~count:300
    QCheck2.Gen.(pair (int_range 1 12) (list_size (int_bound 200) fill_op_gen))
    (fun (cap, ops) ->
      let t = Lru.create ~cap in
      let m = Model.create cap in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Fill k ->
                if Lru.touch t k then Model.touch m k
                else begin
                  let victim = Lru.insert_absent t k in
                  (not (Model.touch m k))
                  && Model.add m k = if victim < 0 then None else Some victim
                end
            | Plain (Add k) -> Lru.add t k = Model.add m k
            | Plain (Touch k) -> Lru.touch t k = Model.touch m k
            | Plain (Remove k) -> Lru.remove t k = Model.remove m k
          in
          same
          && Lru.to_list t = m.Model.l
          && Result.is_ok (Lru.check_invariants t))
        ops)

(* [touch_run] against touching key by key in the model. Keys sit in a
   window that crosses the page boundary at 64, capacities reach past the
   window, and the touches and removes between runs leave the run's keys
   split into segments, partly absent, or already at the head. *)
type run_op = Single of op | Run of int * int

let run_key_gen = QCheck2.Gen.int_range 52 76

let run_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun k -> Single (Add k)) run_key_gen);
        (2, map (fun k -> Single (Touch k)) run_key_gen);
        (1, map (fun k -> Single (Remove k)) run_key_gen);
        (3, map2 (fun k n -> Run (k, k + n)) run_key_gen (int_range (-1) 16));
      ])

let model_touch_run m first last =
  let rec go k n = if k <= last && Model.touch m k then go (k + 1) (n + 1) else n in
  go first 0

let prop_touch_run_matches_touch =
  QCheck2.Test.make ~name:"lru touch_run = touch key by key" ~count:500
    QCheck2.Gen.(pair (int_range 1 30) (list_size (int_bound 200) run_op_gen))
    (fun (cap, ops) ->
      let t = Lru.create ~cap in
      let m = Model.create cap in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Run (first, last) ->
                Lru.touch_run t first last = model_touch_run m first last
            | Single (Add k) -> Lru.add t k = Model.add m k
            | Single (Touch k) -> Lru.touch t k = Model.touch m k
            | Single (Remove k) -> Lru.remove t k = Model.remove m k
          in
          same
          && Lru.to_list t = m.Model.l
          && Result.is_ok (Lru.check_invariants t))
        ops)

(* The shapes the property samples, pinned: a run across the page
   boundary that is one segment already at the head, one split into
   segments by a touch, and one cut short by an absent key. *)
let test_touch_run_shapes () =
  let t = Lru.create ~cap:16 in
  List.iter (fun k -> ignore (Lru.add t k)) [ 60; 61; 62; 63; 64; 65; 66 ];
  check Alcotest.int "first absent" 0 (Lru.touch_run t 59 66);
  check Alcotest.int "empty range" 0 (Lru.touch_run t 61 60);
  check Alcotest.int "all present" 7 (Lru.touch_run t 60 66);
  check Alcotest.(list int) "descending" [ 66; 65; 64; 63; 62; 61; 60 ]
    (Lru.to_list t);
  check Alcotest.int "segment at the head" 7 (Lru.touch_run t 60 66);
  check Alcotest.(list int) "unchanged" [ 66; 65; 64; 63; 62; 61; 60 ]
    (Lru.to_list t);
  ignore (Lru.touch t 63);
  check Alcotest.int "split run" 4 (Lru.touch_run t 62 65);
  check Alcotest.(list int) "split run order" [ 65; 64; 63; 62; 66; 61; 60 ]
    (Lru.to_list t);
  ignore (Lru.remove t 64);
  check Alcotest.int "absent in the middle" 2 (Lru.touch_run t 62 66);
  check Alcotest.(list int) "partial order" [ 63; 62; 65; 66; 61; 60 ]
    (Lru.to_list t);
  check_ok t

(* Keys index the page directory by [key lsr 6], so a negative key would
   read as a huge page index: inserting one is a named error, and a
   lookup reports it absent without touching the directory. *)
let test_negative_keys () =
  let t = Lru.create ~cap:4 in
  ignore (Lru.add t 3);
  Alcotest.check_raises "add_evict"
    (Invalid_argument "Lru.add_evict: negative key") (fun () ->
      ignore (Lru.add_evict t (-1)));
  Alcotest.check_raises "add" (Invalid_argument "Lru.add_evict: negative key")
    (fun () -> ignore (Lru.add t min_int));
  Alcotest.check_raises "insert_absent"
    (Invalid_argument "Lru.insert_absent: negative key") (fun () ->
      ignore (Lru.insert_absent t (-1)));
  check Alcotest.bool "mem" false (Lru.mem t (-1));
  check Alcotest.bool "touch" false (Lru.touch t (-64));
  check Alcotest.bool "remove" false (Lru.remove t min_int);
  check Alcotest.(list int) "set unchanged" [ 3 ] (Lru.to_list t);
  check_ok t

let suite =
  [
    Alcotest.test_case "create rejects bad capacity" `Quick test_create_invalid;
    Alcotest.test_case "add, mem, evict" `Quick test_add_and_mem;
    Alcotest.test_case "touch protects from eviction" `Quick test_touch_protects;
    Alcotest.test_case "adding a present key touches" `Quick test_add_present_is_touch;
    Alcotest.test_case "remove frees a slot" `Quick test_remove;
    Alcotest.test_case "recency order" `Quick test_order;
    Alcotest.test_case "capacity one" `Quick test_capacity_one;
    Alcotest.test_case "capacity one: full operation cycle" `Quick
      test_capacity_one_full_cycle;
    Alcotest.test_case "capacity one: head is tail" `Quick
      test_capacity_one_head_is_tail;
    Alcotest.test_case "emptied page is released and retaken" `Quick
      test_page_released_and_retaken;
    QCheck_alcotest.to_alcotest prop_matches_model;
    QCheck_alcotest.to_alcotest prop_matches_model_wide_keys;
    QCheck_alcotest.to_alcotest prop_matches_model_paged;
    QCheck_alcotest.to_alcotest prop_insert_absent_matches_model;
    QCheck_alcotest.to_alcotest prop_touch_run_matches_touch;
    Alcotest.test_case "touch_run shapes" `Quick test_touch_run_shapes;
    Alcotest.test_case "negative keys" `Quick test_negative_keys;
  ]
