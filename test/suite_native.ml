(* The native backend: SPMC deque model + stress, inbox FIFO, pool
   shipping semantics, and the simulator-as-oracle cross-check. *)

open O2_native

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Deque: qcheck model test against a sequential reference.            *)
(* ------------------------------------------------------------------ *)

(* Reference: a list front..back. push appends at the back, pop takes
   the back, steal takes the front — the Chase–Lev contract when used
   sequentially (where no race can make steal/pop return a false miss). *)
module Model = struct
  type t = int list ref

  let create () : t = ref []
  let push m v = m := !m @ [ v ]

  let pop m =
    match List.rev !m with
    | [] -> -1
    | v :: rest ->
        m := List.rev rest;
        v

  let steal m =
    match !m with
    | [] -> -1
    | v :: rest ->
        m := rest;
        v

  let length m = List.length !m
end

let deque_op_gen =
  QCheck2.Gen.(frequency [ (3, pure `Push); (2, pure `Pop); (2, `Steal |> pure) ])

let prop_deque_matches_model =
  QCheck2.Test.make ~name:"Deque model: push/pop/steal = sequential reference"
    ~count:500
    QCheck2.Gen.(list_size (int_range 0 200) deque_op_gen)
    (fun ops ->
      (* Tiny initial capacity so growth is exercised constantly. *)
      let d = Deque.create ~capacity:2 ~dummy:(-1) () in
      let m = Model.create () in
      let next = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | `Push ->
              incr next;
              Deque.push d !next;
              Model.push m !next;
              true
          | `Pop -> Deque.pop d = Model.pop m
          | `Steal -> Deque.steal d = Model.steal m)
        ops
      && Deque.length d = Model.length m)

let test_deque_grow () =
  let d = Deque.create ~capacity:1 ~dummy:(-1) () in
  for i = 0 to 999 do
    Deque.push d i
  done;
  checki "length after 1000 pushes" 1000 (Deque.length d);
  (* Steal a prefix FIFO, pop the rest LIFO. *)
  for i = 0 to 99 do
    checki "steal is FIFO" i (Deque.steal d)
  done;
  for i = 999 downto 100 do
    checki "pop is LIFO" i (Deque.pop d)
  done;
  checkb "empty at the end" true (Deque.is_empty d);
  checki "pop on empty returns dummy" (-1) (Deque.pop d);
  checki "steal on empty returns dummy" (-1) (Deque.steal d)

(* Multi-domain stress: one owner pushing/popping, several thieves
   stealing concurrently; every pushed element must be taken exactly
   once across all participants. *)
let test_deque_stress () =
  let n = 20_000 in
  let thieves = 3 in
  let d = Deque.create ~dummy:(-1) () in
  let taken = Atomic.make 0 in
  let thief () =
    let mine = ref [] in
    while Atomic.get taken < n do
      let v = Deque.steal d in
      if v >= 0 then begin
        mine := v :: !mine;
        Atomic.incr taken
      end
      else Domain.cpu_relax ()
    done;
    !mine
  in
  let handles = Array.init thieves (fun _ -> Domain.spawn thief) in
  let owner_got = ref [] in
  for i = 0 to n - 1 do
    Deque.push d i;
    (* Interleave owner pops to hit the last-element CAS race. *)
    if i land 3 = 0 then begin
      let v = Deque.pop d in
      if v >= 0 then begin
        owner_got := v :: !owner_got;
        Atomic.incr taken
      end
    end
  done;
  let rec drain_rest () =
    if Atomic.get taken < n then begin
      let v = Deque.pop d in
      if v >= 0 then begin
        owner_got := v :: !owner_got;
        Atomic.incr taken
      end;
      drain_rest ()
    end
  in
  drain_rest ();
  let stolen = Array.to_list handles |> List.concat_map Domain.join in
  let all = List.sort compare (!owner_got @ stolen) in
  checki "every element taken exactly once" n (List.length all);
  List.iteri (fun i v -> checki "no loss, no duplication" i v) all;
  checkb "deque drained" true (Deque.is_empty d)

(* ------------------------------------------------------------------ *)
(* Inbox: MPSC delivery, per-producer FIFO.                            *)
(* ------------------------------------------------------------------ *)

let test_inbox_fifo () =
  let producers = 4 and per = 2_000 in
  let ib = Inbox.create ~dummy:(-1) () in
  let produce p () =
    for i = 0 to per - 1 do
      Inbox.push ib ((p * per) + i)
    done
  in
  let handles = Array.init producers (fun p -> Domain.spawn (produce p)) in
  let got = Array.make (producers * per) (-1) in
  let count = ref 0 in
  let record v =
    got.(!count) <- v;
    incr count
  in
  while !count < producers * per do
    if Inbox.drain_into ib record = 0 then Domain.cpu_relax ()
  done;
  Array.iter Domain.join handles;
  checkb "inbox empty after drain" true (Inbox.is_empty ib);
  (* Each producer's stream must arrive in its push order. *)
  let last = Array.make producers (-1) in
  Array.iter
    (fun v ->
      let p = v / per in
      checkb "per-producer FIFO preserved" true (v > last.(p));
      last.(p) <- v)
    got;
  Array.iteri
    (fun p l -> checki "producer fully delivered" ((p * per) + per - 1) l)
    last

(* ------------------------------------------------------------------ *)
(* Pool: shipping lands where directed; exceptions propagate; yield
   never loses work.                                                   *)
(* ------------------------------------------------------------------ *)

let test_pool_ship_lands_on_target () =
  let t = Native_pool.create ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Native_pool.shutdown t)
    (fun () ->
      let trail = Array.make 3 (-1) in
      Native_pool.spawn t ~core:0 ~name:"tourist" (fun () ->
          for d = 0 to 2 do
            O2_runtime.Api.ship_to d;
            trail.(d) <- Native_pool.current_domain t
          done);
      Native_pool.drain t;
      Array.iteri
        (fun d got -> checki "resumed on the shipped-to domain" d got)
        trail;
      checkb "coordinator is off-pool" true (Native_pool.current_domain t = -1))

(* The worker word names its pool: a worker of [a], on either side of a
   ship within [a], reads -1 for [b], and a worker of [b] reads -1 for
   [a]. The first ship pins the body to worker 0, as a peer may have
   stolen it. An index must fit below the tag, so a pool of 65536
   workers is refused before any is spawned, as is a pool of none. *)
let test_pool_worker_is_off_other_pool () =
  List.iter
    (fun (domains, err) ->
      match Native_pool.create ~domains () with
      | _ -> Alcotest.failf "a pool of %d domains was created" domains
      | exception Invalid_argument msg ->
          Alcotest.(check string) "named error" err msg)
    [
      (65536, "Native_pool.create: too many domains");
      (0, "Native_pool.create: domains must be >= 1");
    ];
  let a = Native_pool.create ~domains:2 () in
  let b = Native_pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () ->
      Native_pool.shutdown a;
      Native_pool.shutdown b)
    (fun () ->
      let seen = Array.make 5 0 in
      Native_pool.spawn a ~core:0 ~name:"a-worker" (fun () ->
          O2_runtime.Api.ship_to 0;
          seen.(0) <- Native_pool.current_domain a;
          seen.(1) <- Native_pool.current_domain b;
          O2_runtime.Api.ship_to 1;
          seen.(2) <- Native_pool.current_domain a;
          seen.(3) <- Native_pool.current_domain b);
      Native_pool.spawn b ~core:1 ~name:"b-worker" (fun () ->
          seen.(4) <- Native_pool.current_domain a);
      Native_pool.drain a;
      Native_pool.drain b;
      checki "a's worker 0 names itself in a" 0 seen.(0);
      checki "a's worker 0 is off pool b" (-1) seen.(1);
      checki "after the ship, a's worker 1 names itself in a" 1 seen.(2);
      checki "after the ship, a's worker 1 is off pool b" (-1) seen.(3);
      checki "b's worker is off pool a" (-1) seen.(4))

let test_pool_exception_propagates () =
  let t = Native_pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Native_pool.shutdown t)
    (fun () ->
      let fine = Atomic.make 0 in
      for c = 0 to 9 do
        Native_pool.spawn t ~core:(c mod 2) ~name:"ok" (fun () ->
            Atomic.incr fine)
      done;
      Native_pool.spawn t ~core:0 ~name:"bad" (fun () -> failwith "boom");
      (match Native_pool.drain t with
      | () -> Alcotest.fail "drain should re-raise the client failure"
      | exception Failure m -> check Alcotest.string "client error" "boom" m);
      checki "other clients still completed" 10 (Atomic.get fine);
      (* The pool stays usable for the next batch. *)
      Native_pool.spawn t ~core:1 ~name:"again" (fun () -> Atomic.incr fine);
      Native_pool.drain t;
      checki "pool survives an error batch" 11 (Atomic.get fine))

(* [map] is what simulation sweeps run on: their goldens are
   bit-identical at every --jobs width only because results come back in
   input order and the exception raised does not depend on which worker
   finished first. *)
let test_map_input_order () =
  let xs = List.init 40 Fun.id in
  (* uneven cells: every third one spins far longer, so workers finish
     out of order *)
  let cell x =
    let spin = if x mod 3 = 0 then 200_000 else 10 in
    let acc = ref x in
    for i = 1 to spin do
      acc := (!acc * 31 + i) land 0xffff
    done;
    (x, !acc)
  in
  let expected = List.map cell xs in
  List.iter
    (fun jobs ->
      check
        Alcotest.(list (pair int int))
        (Printf.sprintf "input order at jobs=%d" jobs)
        expected
        (Native_pool.map ~jobs cell xs))
    [ 2; 3; 7 ]

let test_map_smallest_error_wins () =
  List.iter
    (fun jobs ->
      let ran = Array.make 11 false in
      let raised =
        match
          Native_pool.map ~jobs
            (fun x ->
              ran.(x) <- true;
              if x = 3 || x = 8 then failwith (string_of_int x) else x)
            (List.init 11 Fun.id)
        with
        | _ -> None
        | exception Failure msg -> Some msg
      in
      check
        Alcotest.(option string)
        (Printf.sprintf "smallest failing index wins at jobs=%d" jobs)
        (Some "3") raised;
      checkb
        (Printf.sprintf "every element ran at jobs=%d" jobs)
        true
        (Array.for_all Fun.id ran))
    [ 2; 4 ]

(* At jobs=1 [map] is [List.map]: the first failing element raises and
   the elements after it never run. *)
let test_map_jobs_one_raises_first () =
  let ran = Array.make 11 false in
  let raised =
    match
      Native_pool.map ~jobs:1
        (fun x ->
          ran.(x) <- true;
          if x >= 3 then failwith (string_of_int x) else x)
        (List.init 11 Fun.id)
    with
    | _ -> None
    | exception Failure msg -> Some msg
  in
  check Alcotest.(option string) "first failing element" (Some "3") raised;
  check
    Alcotest.(list bool)
    "elements up to the failure ran, none after"
    (List.init 11 (fun i -> i <= 3))
    (Array.to_list ran)

(* Each map owns its pool and shuts it down on the way out, so a batch
   in which every element raised leaves nothing behind for the next. *)
let test_map_after_raise () =
  List.iter
    (fun jobs ->
      (match Native_pool.map ~jobs (fun _ -> failwith "boom") [ 0; 1; 2 ] with
      | _ -> Alcotest.failf "an all-failing batch returned at jobs=%d" jobs
      | exception Failure _ -> ());
      check
        Alcotest.(list int)
        (Printf.sprintf "a map after a raise at jobs=%d" jobs)
        [ 10; 20; 30 ]
        (Native_pool.map ~jobs (fun x -> 10 * x) [ 1; 2; 3 ]))
    [ 2; 4 ]

(* Workers claim indices from one counter: no element is skipped and
   none runs twice, however the claims interleave. *)
let test_map_runs_each_once () =
  let n = 300 in
  List.iter
    (fun jobs ->
      let runs = Array.init n (fun _ -> Atomic.make 0) in
      ignore
        (Native_pool.map ~jobs
           (fun i -> Atomic.incr runs.(i))
           (List.init n Fun.id));
      check
        Alcotest.(list int)
        (Printf.sprintf "each element once at jobs=%d" jobs)
        (List.init n (fun _ -> 1))
        (Array.to_list (Array.map Atomic.get runs)))
    [ 2; 4; 7 ]

let test_map_small_batches_inline () =
  let caller = (Domain.self () :> int) in
  let on_caller x = ((Domain.self () :> int) = caller, x) in
  check
    Alcotest.(list (pair bool int))
    "empty" []
    (Native_pool.map ~jobs:4 on_caller []);
  check
    Alcotest.(list (pair bool int))
    "singleton on the caller" [ (true, 3) ]
    (Native_pool.map ~jobs:4 on_caller [ 3 ])

(* jobs=1 spawns nothing: the elements run on the caller, one after
   another in input order, as under [List.map]. *)
let test_map_jobs_one_inline () =
  let caller = (Domain.self () :> int) in
  let order = ref [] in
  let out =
    Native_pool.map ~jobs:1
      (fun x ->
        order := x :: !order;
        ((Domain.self () :> int) = caller, x + 1))
      [ 1; 2; 3 ]
  in
  check
    Alcotest.(list (pair bool int))
    "jobs=1 on the caller"
    [ (true, 2); (true, 3); (true, 4) ]
    out;
  check Alcotest.(list int) "inline evaluation order" [ 3; 2; 1 ] !order

let test_pool_yield_and_scale () =
  let t = Native_pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Native_pool.shutdown t)
    (fun () ->
      let hits = Atomic.make 0 in
      for _c = 0 to 4 do
        Native_pool.spawn t ~core:0 ~name:"yielder" (fun () ->
            for _ = 1 to 3 do
              Atomic.incr hits;
              O2_runtime.Api.yield ()
            done)
      done;
      Native_pool.drain t;
      checki "yielding clients all finish" 15 (Atomic.get hits);
      checkb "telemetry counted the resumes" true
        (Native_pool.tasks_executed t >= 15))

(* ------------------------------------------------------------------ *)
(* Backend counters and monitor invariants.                            *)
(* ------------------------------------------------------------------ *)

(* [with_op] runs a closed body on three arguments; these tests bracket
   thunks, so the thunk rides as the body's first argument. *)
let run_thunk f () () = f ()

let thunk_op b ?write o f =
  Native_backend.with_op b ?write o run_thunk f () ()

let test_backend_counters () =
  let b = Native_backend.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Native_backend.shutdown b)
    (fun () ->
      let o0 = Native_backend.register b ~size:64 ~name:"a" in
      let o1 = Native_backend.register b ~size:64 ~name:"b" in
      checki "round-robin initial homes" 0 (Native_backend.home b o0);
      checki "round-robin initial homes" 1 (Native_backend.home b o1);
      (match thunk_op b o0 (fun () -> ()) with
      | () -> Alcotest.fail "with_op off-pool must be rejected"
      | exception Invalid_argument _ -> ());
      for c = 0 to 3 do
        Native_backend.spawn b ~core:(c mod 2) ~name:"client" (fun () ->
            for i = 0 to 24 do
              let o = if i land 1 = 0 then o0 else o1 in
              thunk_op b o (fun () ->
                  Native_backend.compute b 10)
            done)
      done;
      Native_backend.run b;
      checki "ops_completed" 100 (Native_backend.ops_completed b);
      checki "object_ops o0" 52 (Native_backend.object_ops b o0);
      checki "object_ops o1" 48 (Native_backend.object_ops b o1);
      let out, in_ = Native_backend.ships b in
      checki "ship balance at quiescence" out in_;
      Native_backend.rebalance b;
      (* Another batch after a monitor step must keep every invariant. *)
      Native_backend.spawn b ~core:0 ~name:"client2" (fun () ->
          for _ = 1 to 10 do
            thunk_op b o0 (fun () -> ())
          done);
      Native_backend.run b;
      checki "ops accumulate across batches" 110
        (Native_backend.ops_completed b);
      checki "object_ops accumulate" 62 (Native_backend.object_ops b o0);
      let out, in_ = Native_backend.ships b in
      checki "ship balance after rebalance" out in_)

(* Objects never written have no home: the monitor neither counts nor
   moves them, and [migrations] counts only real re-homes. Every client
   reads o0 and o1 equally and never ships, so both objects see the same
   per-domain submit deltas — a monitor that ranked unhomed objects would
   move whichever of the two is not nominally homed on the dominant
   domain, on any schedule. *)
let test_rebalance_ignores_unhomed () =
  let b = Native_backend.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Native_backend.shutdown b)
    (fun () ->
      let o0 = Native_backend.register b ~size:64 ~name:"r0" in
      let o1 = Native_backend.register b ~size:64 ~name:"r1" in
      let w = Native_backend.register b ~size:64 ~name:"w" in
      for c = 0 to 3 do
        Native_backend.spawn b ~core:(c mod 2) ~name:"reader" (fun () ->
            for _ = 1 to 50 do
              thunk_op b o0 (fun () -> ());
              thunk_op b o1 (fun () -> ())
            done)
      done;
      Native_backend.run b;
      checki "reads of never-written objects never ship" 0
        (fst (Native_backend.ships b));
      Native_backend.rebalance b;
      checki "no unhomed object was moved" 0 (Native_backend.migrations b);
      checki "o0 keeps its nominal home" 0 (Native_backend.home b o0);
      checki "o1 keeps its nominal home" 1 (Native_backend.home b o1);
      (* Now write [w] and read the others again: only [w] may move. *)
      for c = 0 to 3 do
        Native_backend.spawn b ~core:(c mod 2) ~name:"mixed" (fun () ->
            for i = 0 to 19 do
              thunk_op b o0 (fun () -> ());
              thunk_op b o1 (fun () -> ());
              thunk_op b ~write:(i = 0) w (fun () -> ())
            done)
      done;
      Native_backend.run b;
      let before = Native_backend.home b w in
      Native_backend.rebalance b;
      let moved = if Native_backend.home b w <> before then 1 else 0 in
      checki "migrations count only the written object's re-home" moved
        (Native_backend.migrations b);
      checki "o0 still on its nominal home" 0 (Native_backend.home b o0);
      checki "o1 still on its nominal home" 1 (Native_backend.home b o1);
      let out, in_ = Native_backend.ships b in
      checki "ship balance" out in_)

(* A real delay of [n] loop iterations inside an op body. Native
   [compute] is free, so the tearing test below widens its race window
   with this instead. *)
let spin n =
  for _ = 1 to n do
    ignore (Sys.opaque_identity 0)
  done

(* The first-write grace period under contention. Each round registers a
   fresh object; readers on both domains hammer it with a body that
   loads two fields a long gap apart, and one client makes the first
   write, storing both fields a short gap apart, once the domain that
   is not the object's home has begun reading. A reader still inside
   its body when that write ran would see the pair torn. *)
let test_first_write_never_tears () =
  let b = Native_backend.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Native_backend.shutdown b)
    (fun () ->
      let rounds = 60 and readers = 6 and per = 50 and lead = 10 in
      let torn = Atomic.make 0 and reads = Atomic.make 0 in
      let pool = Native_backend.pool b in
      for r = 1 to rounds do
        let o =
          Native_backend.register b ~size:16 ~name:(Printf.sprintf "pair%d" r)
        in
        let home = Native_backend.home b o in
        let pair = Array.make 2 0 in
        let seen = Array.init 2 (fun _ -> Atomic.make 0) in
        let read () =
          let a, c =
            thunk_op b o (fun () ->
                let a = pair.(0) in
                spin 1_000;
                (a, pair.(1)))
          in
          if a <> c then Atomic.incr torn;
          Atomic.incr reads;
          Atomic.incr seen.(Native_pool.current_domain pool)
        in
        for c = 0 to readers - 1 do
          Native_backend.spawn b ~core:(c mod 2) ~name:"reader" (fun () ->
              for _ = 1 to per do
                read ()
              done)
        done;
        Native_backend.spawn b ~core:home ~name:"writer" (fun () ->
            for _ = 1 to lead do
              read ()
            done;
            (* Stolen onto the other domain, the write ships home and
               frees this one for readers; at home, wait for them unless
               home has already run every read of the round. *)
            if Native_pool.current_domain pool = home then
              while
                Atomic.get seen.(1 - home) = 0
                && Atomic.get seen.(home) < (readers * per) + lead
              do
                Domain.cpu_relax ()
              done;
            thunk_op b ~write:true o (fun () ->
                pair.(0) <- r;
                spin 20;
                pair.(1) <- r));
        Native_backend.run b;
        checkb "the write landed whole" true (pair.(0) = r && pair.(1) = r)
      done;
      checki "every read completed"
        (rounds * ((readers * per) + lead))
        (Atomic.get reads);
      checki "no reader saw a torn pair" 0 (Atomic.get torn);
      let out, in_ = Native_backend.ships b in
      checki "ship balance" out in_)

(* Native [compute] charges nothing: a billion cycles, which a real
   spin needs well over 0.3 s to run, return at once, on and off the
   pool. *)
let test_compute_is_free () =
  let b = Native_backend.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Native_backend.shutdown b)
    (fun () ->
      let elapsed_ns f =
        let t0 = O2_runtime.Telemetry.now_ns () in
        f ();
        O2_runtime.Telemetry.now_ns () - t0
      in
      let off_pool =
        elapsed_ns (fun () -> Native_backend.compute b 1_000_000_000)
      in
      let o = Native_backend.register b ~size:64 ~name:"free" in
      let in_op = ref max_int in
      Native_backend.spawn b ~core:0 ~name:"client" (fun () ->
          in_op :=
            elapsed_ns (fun () ->
                thunk_op b o (fun () ->
                    Native_backend.compute b 1_000_000_000)));
      Native_backend.run b;
      checkb "off the pool, well under 0.3 s" true (off_pool < 30_000_000);
      checkb "inside an op, well under 0.3 s" true (!in_op < 30_000_000))

(* Waits up to ten seconds for [cond], failing with [what] if it does
   not hold by then. The grace-period tests below wait for a first
   write this way instead of draining, so a write that never completes
   fails its test rather than hanging the suite (the stuck pool is then
   abandoned, not joined). *)
let within_deadline what cond =
  let deadline = O2_runtime.Telemetry.now_ns () + 10_000_000_000 in
  while (not (cond ())) && O2_runtime.Telemetry.now_ns () < deadline do
    Domain.cpu_relax ()
  done;
  if not (cond ()) then Alcotest.fail what

(* A local read that raises leaves its domain through the handler back
   to the loop, which passes: the object's first write must not wait on
   it. *)
let test_raising_read_does_not_block_write () =
  let b = Native_backend.create ~domains:2 () in
  let o = Native_backend.register b ~size:64 ~name:"raiser" in
  let wrote = Atomic.make false in
  for c = 0 to 1 do
    Native_backend.spawn b ~core:c ~name:"raiser" (fun () ->
        match thunk_op b o (fun () -> failwith "boom") with
        | () -> ()
        | exception Failure _ -> ())
  done;
  Native_backend.run b;
  Native_backend.spawn b ~core:0 ~name:"writer" (fun () ->
      thunk_op b ~write:true o (fun () -> ());
      Atomic.set wrote true);
  within_deadline "first write still waiting after a raising local read"
    (fun () -> Atomic.get wrote);
  Native_backend.run b;
  Native_backend.shutdown b;
  checki "only the write ran to completion" 1 (Native_backend.ops_completed b)

(* A first write whose peer is parked: the peer acks only once the
   writer's wake-up reaches it. The writer first idles long enough for
   the other worker, which has nothing to run, to park, then writes the
   object homed where it runs, so the write does not ship. *)
let test_first_write_wakes_parked_peer () =
  let b = Native_backend.create ~domains:2 () in
  let objs =
    Array.init 2 (fun i ->
        Native_backend.register b ~size:64 ~name:(Printf.sprintf "parked%d" i))
  in
  let wrote = Atomic.make false in
  Native_backend.spawn b ~core:0 ~name:"writer" (fun () ->
      let until = O2_runtime.Telemetry.now_ns () + 50_000_000 in
      while O2_runtime.Telemetry.now_ns () < until do
        Domain.cpu_relax ()
      done;
      let me = Native_pool.current_domain (Native_backend.pool b) in
      thunk_op b ~write:true objs.(me) (fun () -> ());
      Atomic.set wrote true);
  within_deadline "first write still waiting on a parked worker" (fun () ->
      Atomic.get wrote);
  Native_backend.run b;
  Native_backend.shutdown b;
  checki "the write ran" 1 (Native_backend.ops_completed b)

(* First writes from both domains at once: each client, once both run
   (a yield barrier, which splits them across the domains), makes the
   first write of [rounds] objects homed where it runs. Each write's
   grace period waits for the other domain, which is inside a first
   write of its own as often as not. *)
let test_concurrent_first_writes () =
  let b = Native_backend.create ~domains:2 () in
  let rounds = 200 in
  let objs =
    Array.init (2 * rounds) (fun i ->
        Native_backend.register b ~size:64 ~name:(Printf.sprintf "w%d" i))
  in
  let arrived = Atomic.make 0 and finished = Atomic.make 0 in
  let pool = Native_backend.pool b in
  for c = 0 to 1 do
    Native_backend.spawn b ~core:c ~name:"writer" (fun () ->
        Atomic.incr arrived;
        while Atomic.get arrived < 2 do
          O2_runtime.Api.yield ()
        done;
        for r = 0 to rounds - 1 do
          let me = Native_pool.current_domain pool in
          thunk_op b ~write:true objs.((2 * r) + me) (fun () -> ())
        done;
        Atomic.incr finished)
  done;
  within_deadline "concurrent first writes still waiting on each other"
    (fun () -> Atomic.get finished = 2);
  Native_backend.run b;
  Native_backend.shutdown b;
  checki "every write ran" (2 * rounds) (Native_backend.ops_completed b);
  let out, in_ = Native_backend.ships b in
  checki "no write shipped" 0 (out + in_)

(* The counters live past the objects registered so far (rows keep
   spare capacity); reading one for a handle never registered must fail
   like [with_op] does, not answer 0. *)
let test_unknown_handle_rejected () =
  let b = Native_backend.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Native_backend.shutdown b)
    (fun () ->
      let o = Native_backend.register b ~size:64 ~name:"only" in
      checki "the registered handle answers" 0 (Native_backend.home b o);
      checki "no ops yet" 0 (Native_backend.object_ops b o);
      List.iter
        (fun h ->
          (match Native_backend.home b h with
          | _ -> Alcotest.failf "home accepted handle %d" h
          | exception Invalid_argument _ -> ());
          match Native_backend.object_ops b h with
          | _ -> Alcotest.failf "object_ops accepted handle %d" h
          | exception Invalid_argument _ -> ())
        [ 5; 1; -1 ])

(* Pad_row's own contract: live words read back, growth keeps them and
   the guards, and a store one word past either end shows up. *)
let test_pad_row () =
  let r = Pad_row.make 5 in
  checki "live length" 5 (Pad_row.length r);
  for i = 0 to 4 do
    Pad_row.set r i (i + 10)
  done;
  Pad_row.incr r 4;
  checki "incr" 15 (Pad_row.get r 4);
  checkb "fresh guards clear" true (Pad_row.guards_clear r);
  let g = Pad_row.grow r 40 in
  checki "grown length" 40 (Pad_row.length g);
  checki "grown keeps live words" 12 (Pad_row.get g 2);
  checki "grown tail is zero" 0 (Pad_row.get g 39);
  checkb "grown guards clear" true (Pad_row.guards_clear g);
  (match Pad_row.grow r 4 with
  | _ -> Alcotest.fail "grow must not shrink"
  | exception Invalid_argument _ -> ());
  Pad_row.set r 5 1;
  checkb "a store past the end lands in the back guard" false
    (Pad_row.guards_clear r);
  let r = Pad_row.make 5 in
  Pad_row.set r (-1) 1;
  checkb "a store before the start lands in the front guard" false
    (Pad_row.guards_clear r)

(* The probe kernel against a one-at-a-time scan. Words are drawn from
   0-40 and, one in eight, from [min_int], [max_int] and [-1] (tagged,
   0x80..01, 0x7f..ff and all ones: the lane extremes), so arrays hold
   duplicates and the first match must win, and first matches fall in
   every 8-word block of a range. Keys are a word of the array, an int
   from -1 to 42 (some absent) or one of the three extremes. Lengths
   0-140 give ranges of one and two 64-word mask groups, each followed
   by every tail of 0-7 words. Three cases in four draw a valid range
   with any [lo], so most ranges start off a 4-word boundary; the rest
   draw both ends from 2 past either end of the array, and a bad range
   must raise the named error. Pad_row.find_in on a row holding the
   same words must give the same answer, relative to [lo]. The same
   property runs on [Int_scan.first_scalar], the kernel's scalar path
   over the whole range: a host with AVX2 runs that loop only on the
   last 0-7 words, so without it a fault in the path other hosts take
   would go unseen here. *)
let reference_first a ~lo ~hi key =
  let rec go i = if i >= hi then -1 else if a.(i) = key then i else go (i + 1) in
  go lo

let int_scan_matches_reference ~name first =
  let extreme = QCheck2.Gen.oneofl [ min_int; max_int; -1 ] in
  QCheck2.Test.make ~count:2000 ~name
    ~print:(fun (a, (lo, hi), key) ->
      Printf.sprintf "a=[|%s|] lo=%d hi=%d key=%d"
        (String.concat "; " (Array.to_list (Array.map string_of_int a)))
        lo hi key)
    QCheck2.Gen.(
      int_range 0 140 >>= fun n ->
      array_size (pure n)
        (frequency [ (7, int_range 0 40); (1, extreme) ])
      >>= fun a ->
      let range =
        frequency
          [
            ( 3,
              int_range 0 n >>= fun lo ->
              int_range lo n >|= fun hi -> (lo, hi) );
            (1, pair (int_range (-2) (n + 2)) (int_range (-2) (n + 2)));
          ]
      in
      let key =
        if n = 0 then oneof [ int_range (-1) 42; extreme ]
        else
          frequency
            [
              (2, int_range 0 (n - 1) >|= Array.get a);
              (2, int_range (-1) 42);
              (1, extreme);
            ]
      in
      triple (pure a) range key)
    (fun (a, (lo, hi), key) ->
      let n = Array.length a in
      if lo < 0 || lo > hi || hi > n then
        match first a ~lo ~hi key with
        | _ -> false
        | exception Invalid_argument msg ->
            msg = "Int_scan.first: range outside the array"
      else begin
        let want = reference_first a ~lo ~hi key in
        let row = Pad_row.make n in
        Array.iteri (Pad_row.set row) a;
        first a ~lo ~hi key = want
        && Pad_row.find_in row ~lo ~len:(hi - lo) key
           = if want < 0 then -1 else want - lo
      end)

let prop_int_scan_matches_reference =
  int_scan_matches_reference
    ~name:"Int_scan.first = a scalar scan; bad ranges raise" Int_scan.first

let prop_int_scan_scalar_matches_reference =
  int_scan_matches_reference
    ~name:"Int_scan.first_scalar = a scalar scan; bad ranges raise"
    Int_scan.first_scalar

module Kv_native = Backend_kv.Make (Native_backend)
module Dir_native = Backend_dir.Make (Native_backend)

(* Every guard word of every padded row is still 0 after a kv + dir
   stress with a monitor step between rounds: an off-by-one in a row
   offset writes the word just past a row's live range. The sizes put
   each boundary on a written word: 48 buckets + 16 directories make 64
   objects, exactly the counter rows' capacity after two growths, so the
   last directory's op count is the last live word; and small buckets
   fill to the brim, so a full bucket's last value is its row's last
   live word. *)
let test_guards_survive_stress domains () =
  let b = Native_backend.create ~domains () in
  Fun.protect
    ~finally:(fun () -> Native_backend.shutdown b)
    (fun () ->
      let slots = 4 in
      let kv =
        Kv_native.create b ~name:"kv" ~buckets:48 ~slots_per_bucket:slots ()
      in
      let dir =
        Dir_native.create b ~name:"dir" ~dirs:16 ~entries_per_dir:8 ()
      in
      checki "objects fill the rows exactly" 64 (Native_backend.objects b);
      let clients = 2 * domains and keyspace = 48 * slots * 2 in
      let full = Atomic.make 0 and bad = Atomic.make 0 in
      (* Keys are owned by client ([k mod clients = c]), so each client's
         model of its own keys predicts every result except whether a
         put of a new key finds its bucket full. *)
      let model =
        Array.init clients (fun _ -> Array.make (keyspace / clients) (-1))
      in
      for round = 0 to 5 do
        for c = 0 to clients - 1 do
          Native_backend.spawn b ~core:(c mod domains) ~name:"stress"
            (fun () ->
              let rng = Random.State.make [| round; c |] and m = model.(c) in
              let expect ok = if not ok then Atomic.incr bad in
              for i = 1 to 400 do
                let j = Random.State.int rng (keyspace / clients) in
                let k = c + (clients * j) in
                (match Random.State.int rng 4 with
                | 0 | 1 ->
                    let v = (round * 1000) + i in
                    if Kv_native.put kv ~key:k ~value:v then m.(j) <- v
                    else begin
                      expect (m.(j) < 0);
                      Atomic.incr full
                    end
                | 2 ->
                    expect (Kv_native.delete kv ~key:k = (m.(j) >= 0));
                    m.(j) <- -1
                | _ -> expect (Kv_native.get kv ~key:k = m.(j)));
                let d = Random.State.int rng 16 in
                let e = Random.State.int rng 8 in
                expect (Dir_native.lookup dir ~dir:d ~key:e = e)
              done)
        done;
        Native_backend.run b;
        Native_backend.rebalance b
      done;
      checki "every result matched the client's model" 0 (Atomic.get bad);
      let held m =
        Array.fold_left (fun a v -> if v >= 0 then a + 1 else a) 0 m
      in
      let stored = Array.fold_left (fun acc m -> acc + held m) 0 model in
      checki "store size = keys the models hold" stored (Kv_native.size kv);
      checkb "some bucket filled to the brim" true (Atomic.get full > 0);
      checkb "counter row guards clear" true (Native_backend.guards_clear b);
      checkb "bucket row guards clear" true (Kv_native.guards_clear kv);
      let out, in_ = Native_backend.ships b in
      checki "ship balance" out in_)

(* ------------------------------------------------------------------ *)
(* The oracle: same program, both backends, identical results.         *)
(* ------------------------------------------------------------------ *)

let oracle_ok r =
  if not r.Oracle.ok then
    Alcotest.fail (Format.asprintf "%a" Oracle.pp_report r)

let test_oracle_kv domains () =
  let r = Oracle.kv_cross_check ~domains () in
  oracle_ok r;
  let out, in_ = r.Oracle.native_ships in
  checki "native ships balance" out in_;
  if domains = 1 then checki "one domain never ships" 0 out
  else checkb "written buckets still ship" true (out > 0)

(* Directory lookups are read-only, so no directory is ever homed and
   every lookup runs on its client's domain. *)
let test_oracle_dir domains () =
  let r = Oracle.dir_cross_check ~domains () in
  oracle_ok r;
  check Alcotest.(pair int int) "read-only lookups never ship" (0, 0)
    r.Oracle.native_ships

let test_oracle_rejects_overflowable_buckets () =
  match
    Oracle.kv_cross_check ~domains:1 ~buckets:4 ~slots_per_bucket:2
      ~keyspace:128 ()
  with
  | _ -> Alcotest.fail "sizing that can overflow a bucket must be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Op_program: the generated programs are pinned bit for bit.          *)
(* ------------------------------------------------------------------ *)

(* A canonical text of a program, so the digest sees values only: ops
   may share blocks, which Marshal would encode differently. *)
let kv_text prog =
  let b = Buffer.create (8 * Array.length prog) in
  Array.iter
    (function
      | Op_program.Get k -> Printf.bprintf b "g%d;" k
      | Op_program.Put (k, v) -> Printf.bprintf b "p%d,%d;" k v
      | Op_program.Delete k -> Printf.bprintf b "d%d;" k)
    prog;
  Buffer.contents b

let dir_text prog =
  let b = Buffer.create (8 * Array.length prog) in
  Array.iter (fun (dir, key) -> Printf.bprintf b "%d,%d;" dir key) prog;
  Buffer.contents b

(* Digests of the programs as first generated (one op per fresh block,
   draws in ocamlopt's right-to-left argument order). The grid covers an
   empty program, one own key per client (keyspace = clients), a client
   owning more than keyspace / clients keys, one entry per directory, a
   seed that maps to the generator's zero-state substitute, and the
   perfbench sizes (8 clients x 1024 keys; 24 dirs x 48 entries). *)
let kv_pins =
  [
    ((4, 0, 0, 64, 1), "d41d8cd98f00b204e9800998ecf8427e");
    ((3, 2, 300, 3, 42), "dacbedb5633b95c3c0c423dd631dae5c");
    ((4, 1, 500, 10, 7), "bf6888cb5933154a72a86ccc6504d34f");
    ((4, 3, 500, 10, 7), "775d31673af513fd84f8dbe34ae3e85c");
    ((1, 0, 400, 1, 5), "24895d6307c7668c289f6e3d376bab80");
    ((2, 0, 200, 16, -1), "2f0ed92c94fe8d59848d784fa7d52c15");
    ((8, 0, 2000, 1024, 7919), "4283e1f9a1cbe7c34759695d4a542a2e");
    ((8, 7, 2000, 1024, 23762), "7c7639777835e27904c5776718b80ad4");
  ]

let dir_pins =
  [
    ((24, 48, 0, 1), "d41d8cd98f00b204e9800998ecf8427e");
    ((5, 1, 400, 9), "ff4a3f0c5089431e10e9f4b201d03733");
    ((1, 1, 100, 3), "01a6688a1cf05a5f7cf602a6098d6b93");
    ((3, 7, 300, -0x5eed), "ee8097d9c9d37f8f868279a54e3b872b");
    ((24, 48, 2000, 7919), "9fc8756756f90d6e863ea8e1c2dced23");
    ((24, 48, 2000, 131), "3cbfcde28c7b5d970c2595d4475aaaa7");
  ]

let test_programs_pinned () =
  List.iter
    (fun ((clients, client, ops, keyspace, seed), want) ->
      let prog = Op_program.kv_program ~clients ~client ~ops ~keyspace ~seed in
      checki "kv program length" ops (Array.length prog);
      check Alcotest.string
        (Printf.sprintf
           "kv_program clients=%d client=%d ops=%d keyspace=%d seed=%d" clients
           client ops keyspace seed)
        want
        (Digest.to_hex (Digest.string (kv_text prog))))
    kv_pins;
  List.iter
    (fun ((dirs, entries_per_dir, ops, seed), want) ->
      let prog = Op_program.dir_program ~dirs ~entries_per_dir ~ops ~seed in
      checki "dir program length" ops (Array.length prog);
      check Alcotest.string
        (Printf.sprintf "dir_program dirs=%d entries_per_dir=%d ops=%d seed=%d"
           dirs entries_per_dir ops seed)
        want
        (Digest.to_hex (Digest.string (dir_text prog))))
    dir_pins

(* One case per Invalid_argument branch of the generators and of
   max_bucket_load. *)
let raises_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

let kv_call ~clients ~client ~ops ~keyspace () =
  Op_program.kv_program ~clients ~client ~ops ~keyspace ~seed:1

let test_kv_program_rejects_counts () =
  raises_invalid "clients = 0"
    (kv_call ~clients:0 ~client:0 ~ops:1 ~keyspace:4);
  raises_invalid "ops < 0" (kv_call ~clients:2 ~client:0 ~ops:(-1) ~keyspace:4)

let test_kv_program_rejects_client () =
  raises_invalid "client < 0"
    (kv_call ~clients:2 ~client:(-1) ~ops:1 ~keyspace:4);
  raises_invalid "client = clients"
    (kv_call ~clients:2 ~client:2 ~ops:1 ~keyspace:4)

let test_kv_program_rejects_keyspace () =
  raises_invalid "keyspace < clients"
    (kv_call ~clients:4 ~client:0 ~ops:1 ~keyspace:3)

let test_dir_program_rejects_counts () =
  let dir ~dirs ~entries_per_dir ~ops () =
    Op_program.dir_program ~dirs ~entries_per_dir ~ops ~seed:1
  in
  raises_invalid "dirs = 0" (dir ~dirs:0 ~entries_per_dir:4 ~ops:1);
  raises_invalid "entries_per_dir = 0" (dir ~dirs:2 ~entries_per_dir:0 ~ops:1);
  raises_invalid "ops < 0" (dir ~dirs:2 ~entries_per_dir:4 ~ops:(-1))

let test_max_bucket_load_rejects_counts () =
  let load ~buckets ~keyspace () =
    Op_program.max_bucket_load ~buckets ~keyspace
  in
  raises_invalid "buckets = 0" (load ~buckets:0 ~keyspace:8);
  raises_invalid "keyspace = 0" (load ~buckets:4 ~keyspace:0);
  checki "one bucket takes the whole keyspace" 8
    (load ~buckets:1 ~keyspace:8 ())

(* ------------------------------------------------------------------ *)
(* Native telemetry: merge order, span reconstruction, oracle parity.  *)
(* ------------------------------------------------------------------ *)

module Tel = O2_runtime.Telemetry
module Capture = O2_obs.Capture

(* The k-way ring merge's contract, driven through record_at with
   arbitrary (unsorted) timestamps: each writer clamps its own stamps
   nondecreasing, a full ring drops the newest and counts it, and the
   merge emits a globally nondecreasing stream that loses nothing
   except those counted drops — the retained window is a per-sink
   prefix, never a torn middle. *)
let prop_merge_nondecreasing_lossless =
  QCheck2.Test.make
    ~name:"Telemetry merge: nondecreasing ts, loses only counted drops"
    ~count:300
    QCheck2.Gen.(
      pair (int_range 1 4)
        (pair (int_range 0 8)
           (list_size (int_range 0 200)
              (pair (int_range 0 4) (int_range 0 1000)))))
    (fun (domains, (cap, writes)) ->
      let tel = Tel.create ~ring_capacity:cap ~sample:1 ~domains () in
      let appended = Array.make (domains + 1) 0 in
      List.iter
        (fun (d, ts) ->
          let d = d mod (domains + 1) in
          let s = Tel.sink tel d in
          Tel.record_at s ~ts ~kind:Tel.Inbox_batch ~a:appended.(d) ~b:d ~c:0;
          appended.(d) <- appended.(d) + 1)
        writes;
      let events = Capture.merged_events tel in
      let ok = ref true in
      let retained = ref 0 in
      for d = 0 to domains do
        let s = Tel.sink tel d in
        retained := !retained + Tel.length s;
        (* drop-newest accounting: retained + dropped = appended, and the
           retained window is exactly the first [cap] records. cap = 0 is
           metrics-only mode — the ring is disabled, not overflowing, so
           nothing is retained and nothing counts as dropped. *)
        if cap = 0 then begin
          if Tel.length s <> 0 || Tel.dropped s <> 0 then ok := false
        end
        else begin
          if Tel.length s + Tel.dropped s <> appended.(d) then ok := false;
          if Tel.length s <> min cap appended.(d) then ok := false
        end;
        for i = 0 to Tel.length s - 1 do
          if Tel.arg0 s i <> i || Tel.arg1 s i <> d then ok := false;
          if i > 0 && Tel.ts s i < Tel.ts s (i - 1) then ok := false
        done
      done;
      if Array.length events <> !retained then ok := false;
      Array.iteri
        (fun i (e : Capture.event) ->
          if i > 0 then begin
            let p = events.(i - 1) in
            if e.Capture.ts < p.Capture.ts then ok := false;
            (* ties are broken toward the lower sink id, so within an
               equal-ts run sink ids never decrease *)
            if e.Capture.ts = p.Capture.ts && e.Capture.sink < p.Capture.sink then
              ok := false
          end)
        events;
      !ok)

(* Multi-domain stress: an op stream that ships on (nearly) every op,
   reconstructed into spans whose events came from two different sinks.
   The ops are writes, so both objects are homed and keep shipping.
   Ordering across sinks is meaningful because both domains read the
   same CLOCK_MONOTONIC. *)
let test_span_reconstruction_across_ship () =
  let domains = 2 in
  let tel = Tel.create ~domains () in
  let b = Native_backend.create ~telemetry:tel ~domains () in
  Fun.protect
    ~finally:(fun () -> Native_backend.shutdown b)
    (fun () ->
      let o0 = Native_backend.register b ~size:64 ~name:"a" in
      let o1 = Native_backend.register b ~size:64 ~name:"b" in
      let ops = 40 in
      (* Alternating targets homed on different domains: wherever the
         client body lands (spawn target or stolen), consecutive ops
         cannot both be local, so the stream keeps shipping. *)
      Native_backend.spawn b ~core:0 ~name:"client" (fun () ->
          for i = 0 to ops - 1 do
            let o = if i land 1 = 0 then o0 else o1 in
            thunk_op b ~write:true o (fun () ->
                Native_backend.compute b 5)
          done);
      Native_backend.run b;
      let spans, incomplete = Capture.spans tel in
      checki "no spans lost to the ring bound" 0 incomplete;
      checki "one span per op" ops (List.length spans);
      let out, _ = Native_backend.ships b in
      checki "shipped spans = the backend's own ship count" out
        (List.length (List.filter Capture.shipped spans));
      checkb "the alternating client really shipped" true (out > 0);
      List.iter
        (fun (s : Capture.span) ->
          checkb "submit <= start <= end" true
            (s.Capture.submit_ts <= s.Capture.start_ts
            && s.Capture.start_ts <= s.Capture.end_ts);
          checki "ops execute on the object's home"
            (Native_backend.home b s.Capture.obj)
            s.Capture.exec_sink;
          if Capture.shipped s then begin
            checkb "ship handoff bracketed inside the span" true
              (s.Capture.submit_ts <= s.Capture.ship_out_ts
              && s.Capture.ship_out_ts <= s.Capture.ship_in_ts
              && s.Capture.ship_in_ts <= s.Capture.start_ts);
            checki "flow arrow lands on the executing domain"
              s.Capture.exec_sink s.Capture.ship_dst;
            checkb "shipped means cross-domain" true
              (s.Capture.submit_sink <> s.Capture.exec_sink)
          end
          else
            checki "home op stays on its submitter" s.Capture.submit_sink
              s.Capture.exec_sink)
        spans;
      (* The latency accumulators ride with_op locals, not the ring: they
         must have seen every op. *)
      let m = Capture.metrics tel in
      checki "every op observed by the latency accumulators" ops
        (O2_runtime.Hist.count (O2_obs.Metrics.hist m "op_ns/exec")))

(* Reads of a never-written object run where they were submitted: with
   telemetry attached each span starts and ends on one sink, nothing is
   shipped, and the latency accumulators still see every op. *)
let test_spans_of_local_reads () =
  let domains = 2 in
  let tel = Tel.create ~domains () in
  let b = Native_backend.create ~telemetry:tel ~domains () in
  Fun.protect
    ~finally:(fun () -> Native_backend.shutdown b)
    (fun () ->
      let o0 = Native_backend.register b ~size:64 ~name:"a" in
      let o1 = Native_backend.register b ~size:64 ~name:"b" in
      let per = 20 in
      for c = 0 to 1 do
        Native_backend.spawn b ~core:c ~name:"reader" (fun () ->
            for i = 0 to per - 1 do
              let o = if i land 1 = 0 then o0 else o1 in
              thunk_op b o (fun () -> Native_backend.compute b 5)
            done)
      done;
      Native_backend.run b;
      let spans, incomplete = Capture.spans tel in
      checki "no spans lost to the ring bound" 0 incomplete;
      checki "one span per op" (2 * per) (List.length spans);
      checki "the backend shipped nothing" 0 (fst (Native_backend.ships b));
      List.iter
        (fun (s : Capture.span) ->
          checkb "local reads are not shipped" false (Capture.shipped s);
          checki "submitted and executed on one domain" s.Capture.submit_sink
            s.Capture.exec_sink)
        spans;
      let m = Capture.metrics tel in
      checki "every op observed by the latency accumulators" (2 * per)
        (O2_runtime.Hist.count (O2_obs.Metrics.hist m "op_ns/exec")))

(* The flight recorder must be an observer, not a participant: the
   oracle's bit-identical cross-check still holds with telemetry
   attached (sampled rings, so drop handling is exercised too). *)
let test_oracle_kv_with_telemetry domains () =
  let telemetry = Tel.create ~ring_capacity:(1 lsl 14) ~sample:7 ~domains () in
  let r = Oracle.kv_cross_check ~telemetry ~domains () in
  oracle_ok r;
  checkb "the recorder captured events" true (Tel.total_events telemetry > 0);
  let out, _ = r.Oracle.native_ships in
  checki "telemetry's ship count matches the backend's" out
    (Tel.fold_sinks telemetry ~init:0 ~f:(fun acc s -> acc + Tel.ships_out s))

(* Read-only lookups with the recorder attached: still identical to the
   simulator, still no ships, and telemetry saw every op as a home op. *)
let test_oracle_dir_with_telemetry domains () =
  let telemetry = Tel.create ~ring_capacity:(1 lsl 14) ~sample:7 ~domains () in
  let r = Oracle.dir_cross_check ~telemetry ~domains () in
  oracle_ok r;
  check Alcotest.(pair int int) "read-only lookups never ship" (0, 0)
    r.Oracle.native_ships;
  checki "telemetry counted no ships" 0
    (Tel.fold_sinks telemetry ~init:0 ~f:(fun acc s -> acc + Tel.ships_out s))

(* ------------------------------------------------------------------ *)
(* The programs' pricing calls, on a backend that only counts them.    *)
(* ------------------------------------------------------------------ *)

(* A one-lane backend that runs each op in place and counts the
   [touch]/[compute] calls it receives; [priced] is the flavour. *)
module Counting (P : sig
  val priced : bool
end) =
struct
  type t = {
    mutable objs : int;
    mutable bodies : (unit -> unit) list;  (* newest first *)
    mutable ops : int;
    mutable touches : int;
    mutable computes : int;
  }

  let create () = { objs = 0; bodies = []; ops = 0; touches = 0; computes = 0 }
  let name _ = "counting"
  let priced = P.priced
  let cores _ = 1
  let shared_probe = O2_runtime.Probe.create ()
  let probe _ = shared_probe

  let register t ~size:_ ~name:_ =
    t.objs <- t.objs + 1;
    t.objs - 1

  let objects t = t.objs
  let spawn t ~core:_ ~name:_ body = t.bodies <- body :: t.bodies

  let with_op t ?write:_ _obj f e x y =
    let r = f e x y in
    t.ops <- t.ops + 1;
    r

  let touch t ~write:_ ~obj:_ ~off:_ ~len:_ = t.touches <- t.touches + 1
  let compute t _ = t.computes <- t.computes + 1

  let run t =
    let bodies = List.rev t.bodies in
    t.bodies <- [];
    List.iter (fun body -> body ()) bodies

  let ops_completed t = t.ops
  let object_ops _ _ = 0
  let ships _ = (0, 0)
  let migrations _ = 0
end

module Priced = Counting (struct
  let priced = true
end)

module Unpriced = Counting (struct
  let priced = false
end)

(* The sim price tests' kv and dir programs, run in client order. Each
   returns the results in op order, so both flavours can be compared. *)
module Programs (B : O2_runtime.Backend_intf.S) = struct
  module Kv = Backend_kv.Make (B)
  module Dir = Backend_dir.Make (B)

  let kv b =
    let clients = 4 and ops = 120 in
    let kv = Kv.create b ~name:"kv" ~buckets:8 ~slots_per_bucket:16 () in
    let out = ref [] in
    for c = 0 to clients - 1 do
      let prog =
        Op_program.kv_program ~clients ~client:c ~ops ~keyspace:64 ~seed:7
      in
      B.spawn b ~core:c ~name:"kv-client" (fun () ->
          Array.iter
            (fun op ->
              let r =
                match op with
                | Op_program.Get k -> Kv.get kv ~key:k
                | Op_program.Put (k, v) ->
                    Bool.to_int (Kv.put kv ~key:k ~value:v)
                | Op_program.Delete k -> Bool.to_int (Kv.delete kv ~key:k)
              in
              out := r :: !out)
            prog)
    done;
    B.run b;
    List.rev !out

  let dir b =
    let clients = 4 and ops = 120 and dirs = 6 and entries_per_dir = 64 in
    let d = Dir.create b ~name:"dir" ~dirs ~entries_per_dir () in
    let out = ref [] in
    for c = 0 to clients - 1 do
      let prog =
        Op_program.dir_program ~dirs ~entries_per_dir ~ops ~seed:(11 + c)
      in
      B.spawn b ~core:c ~name:"dir-client" (fun () ->
          Array.iter
            (fun (dir, key) -> out := Dir.lookup d ~dir ~key :: !out)
            prog)
    done;
    B.run b;
    List.rev !out
end

module P = Programs (Priced)
module U = Programs (Unpriced)

let calls = Alcotest.(triple int int int)

(* A priced backend gets one [compute] per op and a [touch] per probed
   range and per written slot (the counts the programs made on every
   backend before [priced] existed); an unpriced one gets no call at
   all, and both compute the same results. *)
let test_pricing_calls ~priced ~unpriced ~touches () =
  let p = Priced.create () and u = Unpriced.create () in
  check Alcotest.(list int) "same results either way" (priced p) (unpriced u);
  check calls "priced: ops, touches, computes" (480, touches, 480)
    (p.ops, p.touches, p.computes);
  check calls "unpriced: ops, touches, computes" (480, 0, 0)
    (u.ops, u.touches, u.computes)

(* The mask path (power-of-two counts) and the [mod] path pick the
   bucket the reference hash picks, for every key of a 4096-key range. *)
let test_bucket_of_key () =
  List.iter
    (fun buckets ->
      let kv =
        U.Kv.create (Unpriced.create ()) ~name:"kv" ~buckets
          ~slots_per_bucket:1 ()
      in
      for key = 0 to 4095 do
        let want = key * 0x2545F491 land max_int mod buckets in
        let got = U.Kv.bucket_of_key kv key in
        if got <> want then
          Alcotest.failf "buckets=%d key=%d: bucket %d, want %d" buckets key
            got want
      done)
    [ 1; 2; 3; 16; 48; 64; 1000 ]

(* An out-of-range directory is a named error, not the array's bare
   bounds failure, on either side of the range. *)
let test_dir_out_of_range () =
  let d =
    U.Dir.create (Unpriced.create ()) ~name:"dir" ~dirs:3
      ~entries_per_dir:4 ()
  in
  List.iter
    (fun dir ->
      Alcotest.check_raises
        (Printf.sprintf "dir %d" dir)
        (Invalid_argument "Backend_dir.lookup: dir out of range")
        (fun () -> ignore (U.Dir.lookup d ~dir ~key:0)))
    [ -1; 3; max_int; min_int ];
  checki "the last directory still resolves" 2
    (U.Dir.lookup d ~dir:2 ~key:2)

(* ------------------------------------------------------------------ *)
(* The simulator's price of the two functor programs.                  *)
(* ------------------------------------------------------------------ *)

module Sim_kv = Backend_kv.Make (Sim_backend)
module Sim_dir = Backend_dir.Make (Sim_backend)

(* Engine clock, busy cycles summed over cores and events processed at
   the end of a simulated run: every cycle a program's [touch] and
   [compute] charge lands in these. *)
let sim_price sb =
  let e = Sim_backend.engine sb in
  let busy =
    Array.fold_left
      (fun acc (c : O2_simcore.Counters.t) -> acc + c.busy_cycles)
      0
      (O2_simcore.Machine.all_counters (O2_runtime.Engine.machine e))
  in
  (O2_runtime.Engine.now e, busy, O2_runtime.Engine.events_processed e)

let price = Alcotest.(triple int int int)

(* One fixed kv program: four clients of 120 ops over 64 keys in eight
   buckets of 16 slots. *)
let test_sim_price_kv () =
  let sb = Sim_backend.create () in
  let clients = 4 and ops = 120 in
  let kv = Sim_kv.create sb ~name:"kv" ~buckets:8 ~slots_per_bucket:16 () in
  for c = 0 to clients - 1 do
    let prog =
      Op_program.kv_program ~clients ~client:c ~ops ~keyspace:64 ~seed:7
    in
    Sim_backend.spawn sb ~core:c ~name:"kv-client" (fun () ->
        Array.iter
          (function
            | Op_program.Get k -> ignore (Sim_kv.get kv ~key:k)
            | Op_program.Put (k, v) -> ignore (Sim_kv.put kv ~key:k ~value:v)
            | Op_program.Delete k -> ignore (Sim_kv.delete kv ~key:k))
          prog)
  done;
  Sim_backend.run sb;
  checki "every op completed" (clients * ops) (Sim_backend.ops_completed sb);
  check price "clock, busy cycles, events" (9701, 38525, 1606) (sim_price sb)

(* One fixed directory program: four clients of 120 lookups over six
   directories of 64 entries, at the default compare price. *)
let test_sim_price_dir () =
  let sb = Sim_backend.create () in
  let clients = 4 and ops = 120 and dirs = 6 and entries_per_dir = 64 in
  let d = Sim_dir.create sb ~name:"dir" ~dirs ~entries_per_dir () in
  for c = 0 to clients - 1 do
    let prog =
      Op_program.dir_program ~dirs ~entries_per_dir ~ops ~seed:(11 + c)
    in
    Sim_backend.spawn sb ~core:c ~name:"dir-client" (fun () ->
        Array.iter (fun (dir, key) -> ignore (Sim_dir.lookup d ~dir ~key)) prog)
  done;
  Sim_backend.run sb;
  checki "every lookup completed" (clients * ops) (Sim_backend.ops_completed sb);
  check price "clock, busy cycles, events" (43994, 168332, 1448)
    (sim_price sb)

let suite =
  [
    Alcotest.test_case "deque grow + FIFO/LIFO ends" `Quick test_deque_grow;
    QCheck_alcotest.to_alcotest prop_deque_matches_model;
    QCheck_alcotest.to_alcotest prop_int_scan_matches_reference;
    QCheck_alcotest.to_alcotest prop_int_scan_scalar_matches_reference;
    Alcotest.test_case "deque multi-domain stress" `Slow test_deque_stress;
    Alcotest.test_case "inbox MPSC per-producer FIFO" `Quick test_inbox_fifo;
    Alcotest.test_case "pool: shipping lands on target" `Quick
      test_pool_ship_lands_on_target;
    Alcotest.test_case "pool: a worker reads -1 for another pool" `Quick
      test_pool_worker_is_off_other_pool;
    Alcotest.test_case "pool: client exception propagates" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "pool: yield keeps all work" `Quick
      test_pool_yield_and_scale;
    Alcotest.test_case "pool: map returns results in input order" `Quick
      test_map_input_order;
    Alcotest.test_case "pool: map runs every element, smallest error wins"
      `Quick test_map_smallest_error_wins;
    Alcotest.test_case "pool: map at jobs=1 raises as List.map does" `Quick
      test_map_jobs_one_raises_first;
    Alcotest.test_case "pool: map works after a raise" `Quick
      test_map_after_raise;
    Alcotest.test_case "pool: map runs each element once" `Quick
      test_map_runs_each_once;
    Alcotest.test_case "pool: map runs small batches inline" `Quick
      test_map_small_batches_inline;
    Alcotest.test_case "pool: map at jobs=1 runs inline in order" `Quick
      test_map_jobs_one_inline;
    Alcotest.test_case "backend: counters and ship balance" `Quick
      test_backend_counters;
    Alcotest.test_case "oracle: kv at 1 domain" `Slow (test_oracle_kv 1);
    Alcotest.test_case "oracle: kv at 2 domains" `Slow (test_oracle_kv 2);
    Alcotest.test_case "oracle: kv at 4 domains" `Slow (test_oracle_kv 4);
    Alcotest.test_case "oracle: dir at 2 domains" `Slow (test_oracle_dir 2);
    Alcotest.test_case "oracle: dir at 1 domain" `Slow (test_oracle_dir 1);
    Alcotest.test_case "oracle: dir at 4 domains" `Slow (test_oracle_dir 4);
    Alcotest.test_case "oracle: rejects overflowable buckets" `Quick
      test_oracle_rejects_overflowable_buckets;
    QCheck_alcotest.to_alcotest prop_merge_nondecreasing_lossless;
    Alcotest.test_case "telemetry: spans survive the ship handoff" `Quick
      test_span_reconstruction_across_ship;
    Alcotest.test_case "oracle: kv with telemetry at 1 domain" `Slow
      (test_oracle_kv_with_telemetry 1);
    Alcotest.test_case "oracle: kv with telemetry at 2 domains" `Slow
      (test_oracle_kv_with_telemetry 2);
    Alcotest.test_case "oracle: kv with telemetry at 4 domains" `Slow
      (test_oracle_kv_with_telemetry 4);
    Alcotest.test_case "oracle: dir with telemetry at 1 domain" `Slow
      (test_oracle_dir_with_telemetry 1);
    Alcotest.test_case "oracle: dir with telemetry at 2 domains" `Slow
      (test_oracle_dir_with_telemetry 2);
    Alcotest.test_case "oracle: dir with telemetry at 4 domains" `Slow
      (test_oracle_dir_with_telemetry 4);
    Alcotest.test_case "backend: rebalance ignores unhomed objects" `Quick
      test_rebalance_ignores_unhomed;
    Alcotest.test_case "backend: first write never tears a local read" `Quick
      test_first_write_never_tears;
    Alcotest.test_case "backend: a raising local read does not block the \
                        first write" `Quick test_raising_read_does_not_block_write;
    Alcotest.test_case "backend: a first write wakes a parked peer" `Quick
      test_first_write_wakes_parked_peer;
    Alcotest.test_case "backend: concurrent first writes both complete" `Quick
      test_concurrent_first_writes;
    Alcotest.test_case "backend: native compute is free" `Quick
      test_compute_is_free;
    Alcotest.test_case "telemetry: local reads stay on their domain" `Quick
      test_spans_of_local_reads;
    Alcotest.test_case "backend: home and object_ops reject unknown handles"
      `Quick test_unknown_handle_rejected;
    Alcotest.test_case "pad_row: live words between clear guards" `Quick
      test_pad_row;
    Alcotest.test_case "layout: guards clear after stress at 2 domains" `Quick
      (test_guards_survive_stress 2);
    Alcotest.test_case "layout: guards clear after stress at 4 domains" `Quick
      (test_guards_survive_stress 4);
    Alcotest.test_case "op_program: programs match their pinned digests"
      `Quick test_programs_pinned;
    Alcotest.test_case "op_program: kv_program rejects bad counts" `Quick
      test_kv_program_rejects_counts;
    Alcotest.test_case "op_program: kv_program rejects an unknown client"
      `Quick test_kv_program_rejects_client;
    Alcotest.test_case "op_program: kv_program rejects a short keyspace"
      `Quick test_kv_program_rejects_keyspace;
    Alcotest.test_case "op_program: dir_program rejects bad counts" `Quick
      test_dir_program_rejects_counts;
    Alcotest.test_case "op_program: max_bucket_load rejects bad counts" `Quick
      test_max_bucket_load_rejects_counts;
    Alcotest.test_case "sim price: the kv program's cycles are pinned" `Quick
      test_sim_price_kv;
    Alcotest.test_case "sim price: the dir program's cycles are pinned" `Quick
      test_sim_price_dir;
    Alcotest.test_case "priced: kv pricing calls only on a priced backend"
      `Quick
      (test_pricing_calls ~priced:P.kv ~unpriced:U.kv ~touches:638);
    Alcotest.test_case "priced: dir pricing calls only on a priced backend"
      `Quick
      (test_pricing_calls ~priced:P.dir ~unpriced:U.dir ~touches:480);
    Alcotest.test_case "kv: bucket_of_key matches the reference hash" `Quick
      test_bucket_of_key;
    Alcotest.test_case "dir: an out-of-range dir is a named error" `Quick
      test_dir_out_of_range;
  ]
