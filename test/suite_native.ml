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

let test_backend_counters () =
  let b = Native_backend.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Native_backend.shutdown b)
    (fun () ->
      let o0 = Native_backend.register b ~size:64 ~name:"a" in
      let o1 = Native_backend.register b ~size:64 ~name:"b" in
      checki "round-robin initial homes" 0 (Native_backend.home b o0);
      checki "round-robin initial homes" 1 (Native_backend.home b o1);
      (match Native_backend.with_op b o0 (fun () -> ()) with
      | () -> Alcotest.fail "with_op off-pool must be rejected"
      | exception Invalid_argument _ -> ());
      for c = 0 to 3 do
        Native_backend.spawn b ~core:(c mod 2) ~name:"client" (fun () ->
            for i = 0 to 24 do
              let o = if i land 1 = 0 then o0 else o1 in
              Native_backend.with_op b o (fun () ->
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
            Native_backend.with_op b o0 (fun () -> ())
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
              Native_backend.with_op b o0 (fun () -> ());
              Native_backend.with_op b o1 (fun () -> ())
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
              Native_backend.with_op b o0 (fun () -> ());
              Native_backend.with_op b o1 (fun () -> ());
              Native_backend.with_op b ~write:(i = 0) w (fun () -> ())
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

(* The first-write handshake under contention. Each round registers a
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
            Native_backend.with_op b o (fun () ->
                let a = pair.(0) in
                Native_backend.compute b 1_000;
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
            Native_backend.with_op b ~write:true o (fun () ->
                pair.(0) <- r;
                Native_backend.compute b 20;
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

(* A raise inside a local read must clear the reader's slot: otherwise
   the object's first write would spin on it forever. The coordinator
   waits for the write with a deadline instead of draining, so a leaked
   slot fails this test rather than hanging the suite (the stuck pool is
   then abandoned, not joined). *)
let test_local_read_raise_clears_slot () =
  let b = Native_backend.create ~domains:2 () in
  let o = Native_backend.register b ~size:64 ~name:"raiser" in
  let wrote = Atomic.make false in
  for c = 0 to 1 do
    Native_backend.spawn b ~core:c ~name:"raiser" (fun () ->
        match Native_backend.with_op b o (fun () -> failwith "boom") with
        | () -> ()
        | exception Failure _ -> ())
  done;
  Native_backend.run b;
  Native_backend.spawn b ~core:0 ~name:"writer" (fun () ->
      Native_backend.with_op b ~write:true o (fun () -> ());
      Atomic.set wrote true);
  let deadline = O2_runtime.Telemetry.now_ns () + 10_000_000_000 in
  while
    (not (Atomic.get wrote)) && O2_runtime.Telemetry.now_ns () < deadline
  do
    Domain.cpu_relax ()
  done;
  if not (Atomic.get wrote) then
    Alcotest.fail "first write still waiting: a raising local read left its slot";
  Native_backend.run b;
  Native_backend.shutdown b;
  checki "only the write ran to completion" 1 (Native_backend.ops_completed b)

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
(* Native telemetry: merge order, span reconstruction, oracle parity.  *)
(* ------------------------------------------------------------------ *)

module Tel = O2_runtime.Telemetry
module Ntel = O2_obs.Native_tel

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
      let events = Ntel.merged_events tel in
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
        (fun i (e : Ntel.event) ->
          if i > 0 then begin
            let p = events.(i - 1) in
            if e.Ntel.ts < p.Ntel.ts then ok := false;
            (* ties are broken toward the lower sink id, so within an
               equal-ts run sink ids never decrease *)
            if e.Ntel.ts = p.Ntel.ts && e.Ntel.sink < p.Ntel.sink then
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
            Native_backend.with_op b ~write:true o (fun () ->
                Native_backend.compute b 5)
          done);
      Native_backend.run b;
      let spans = Ntel.spans tel in
      checki "no spans lost to the ring bound" 0 (Ntel.incomplete_spans tel);
      checki "one span per op" ops (List.length spans);
      let out, _ = Native_backend.ships b in
      checki "shipped spans = the backend's own ship count" out
        (List.length (List.filter Ntel.shipped spans));
      checkb "the alternating client really shipped" true (out > 0);
      List.iter
        (fun (s : Ntel.span) ->
          checkb "submit <= start <= end" true
            (s.Ntel.submit_ts <= s.Ntel.start_ts
            && s.Ntel.start_ts <= s.Ntel.end_ts);
          checki "ops execute on the object's home"
            (Native_backend.home b s.Ntel.obj)
            s.Ntel.exec_sink;
          if Ntel.shipped s then begin
            checkb "ship handoff bracketed inside the span" true
              (s.Ntel.submit_ts <= s.Ntel.ship_out_ts
              && s.Ntel.ship_out_ts <= s.Ntel.ship_in_ts
              && s.Ntel.ship_in_ts <= s.Ntel.start_ts);
            checki "flow arrow lands on the executing domain"
              s.Ntel.exec_sink s.Ntel.ship_dst;
            checkb "shipped means cross-domain" true
              (s.Ntel.submit_sink <> s.Ntel.exec_sink)
          end
          else
            checki "home op stays on its submitter" s.Ntel.submit_sink
              s.Ntel.exec_sink)
        spans;
      (* The latency accumulators ride with_op locals, not the ring: they
         must have seen every op. *)
      let m = Ntel.metrics tel in
      checki "every op observed by the latency accumulators" ops
        (O2_obs.Hist.count (O2_obs.Metrics.hist m "op_ns/exec")))

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
              Native_backend.with_op b o (fun () -> Native_backend.compute b 5)
            done)
      done;
      Native_backend.run b;
      let spans = Ntel.spans tel in
      checki "no spans lost to the ring bound" 0 (Ntel.incomplete_spans tel);
      checki "one span per op" (2 * per) (List.length spans);
      checki "the backend shipped nothing" 0 (fst (Native_backend.ships b));
      List.iter
        (fun (s : Ntel.span) ->
          checkb "local reads are not shipped" false (Ntel.shipped s);
          checki "submitted and executed on one domain" s.Ntel.submit_sink
            s.Ntel.exec_sink)
        spans;
      let m = Ntel.metrics tel in
      checki "every op observed by the latency accumulators" (2 * per)
        (O2_obs.Hist.count (O2_obs.Metrics.hist m "op_ns/exec")))

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

let suite =
  [
    Alcotest.test_case "deque grow + FIFO/LIFO ends" `Quick test_deque_grow;
    QCheck_alcotest.to_alcotest prop_deque_matches_model;
    Alcotest.test_case "deque multi-domain stress" `Slow test_deque_stress;
    Alcotest.test_case "inbox MPSC per-producer FIFO" `Quick test_inbox_fifo;
    Alcotest.test_case "pool: shipping lands on target" `Quick
      test_pool_ship_lands_on_target;
    Alcotest.test_case "pool: client exception propagates" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "pool: yield keeps all work" `Quick
      test_pool_yield_and_scale;
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
    Alcotest.test_case "backend: a raising local read clears its slot" `Quick
      test_local_read_raise_clears_slot;
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
  ]
