(* Cross-chip scenarios on the one simulator engine. These cases began as
   the checks of a windowed sharded engine, since deleted (DESIGN.md,
   "One engine"). Each now pins what the serial engine does on the same
   scenario: migration across chips, local and remote spin locks, a
   64-core config whose presence masks span two words, paused and
   stopped runs, control events. "Sharded" now means work split over
   worker domains: an engine shares no mutable state with another, so a
   scenario gives the same counters on every domain count, and the
   goldens shard their cells over 1, 2 and 4 domains. Pinned values were
   captured from the serial engine before the sharded one was deleted.
   The case names are kept so the suite's test ids stay stable. *)

open O2_simcore
open O2_runtime

let cfg = Config.amd16
let machine () = Machine.create cfg
let serial () = Engine.create (machine ())

let chip_of = Config.chip_of_core cfg

(* First core belonging to [chip]. *)
let core_on chip =
  let rec find c = if chip_of c = chip then c else find (c + 1) in
  find 0

let counters_digest e =
  let m = Engine.machine e in
  let copies = Array.map Counters.copy (Machine.all_counters m) in
  Digest.to_hex (Digest.string (Marshal.to_string copies []))

(* A mixed cross-chip workload: every chip has a writer hammering a
   shared line (invalidation + presence traffic), plus a reader of a
   chip-local line, plus one thread migrating across all chips. *)
let mixed_workload e =
  let m = Engine.machine e in
  let mem = Machine.memory m in
  let shared = Memsys.alloc_isolated mem ~name:"shared" ~size:64 in
  let locals =
    Array.init cfg.Config.chips (fun i ->
        Memsys.alloc_isolated mem ~name:(Printf.sprintf "local%d" i) ~size:256)
  in
  for chip = 0 to cfg.Config.chips - 1 do
    let core = core_on chip in
    ignore
      (Engine.spawn e ~core ~name:"writer" (fun () ->
           for _ = 1 to 30 do
             ignore (Api.write ~addr:shared.Memsys.base ~len:8);
             Api.compute 200
           done));
    ignore
      (Engine.spawn e ~core:(core + 1) ~name:"reader" (fun () ->
           for _ = 1 to 40 do
             ignore (Api.read ~addr:locals.(chip).Memsys.base ~len:64);
             ignore (Api.read ~addr:shared.Memsys.base ~len:8);
             Api.compute 100
           done));
    ignore
      (Engine.spawn e ~core:(core + 2) ~name:"hopper" (fun () ->
           for target = 0 to cfg.Config.chips - 1 do
             Api.migrate_to (core_on target + 3);
             Api.compute 500
           done))
  done

(* The mixed workload's counters on the serial engine, captured before
   the sharded engine was deleted; it ends at cycle 14_200. *)
let mixed_digest = "8475183ea9560ad9ceac3bd969b78d8c"
let mixed_end = 14_200

let mixed_run () =
  let e = serial () in
  mixed_workload e;
  Engine.run e;
  counters_digest e

(* A horizon is met to the cycle: control events at h-1 and h fire, one
   at h+1 does not, and the workload is left mid-flight. There is no
   synchronisation window to round the horizon to. *)
let test_exact_horizon () =
  let e = serial () in
  mixed_workload e;
  let h = (mixed_end / 2) + 1 in
  let fired = Array.make 3 false in
  List.iteri
    (fun i time -> Engine.at e ~time (fun ~now:_ -> fired.(i) <- true))
    [ h - 1; h; h + 1 ];
  Engine.run ~until:h e;
  Alcotest.(check (list bool))
    "events up to the horizon fired, none past it" [ true; true; false ]
    (Array.to_list fired);
  Alcotest.(check bool) "stopped at the horizon" true (Engine.now e <= h);
  Alcotest.(check bool) "workload still running" true
    (Engine.live_threads e > 0)

let test_smoke () =
  let e = serial () in
  for chip = 0 to cfg.Config.chips - 1 do
    ignore
      (Engine.spawn e ~core:(core_on chip) ~name:"t" (fun () ->
           Api.compute 1000))
  done;
  Engine.run e;
  Alcotest.(check int) "no live threads" 0 (Engine.live_threads e);
  for chip = 0 to cfg.Config.chips - 1 do
    Alcotest.(check int) "clock advanced" 1000 (Engine.core_clock e (core_on chip))
  done

(* An oversubscribed domain request clamps to the host's cores, and the
   clamped pool still runs every engine to the same counters. *)
let test_shards_clamped () =
  let clamped = O2_native.Native_pool.clamped ~what:"engines" 1024 in
  Alcotest.(check int) "oversubscribed request clamps"
    (O2_native.Native_pool.default_jobs ()) clamped;
  Alcotest.(check int) "a request within the core count is untouched" 1
    (O2_native.Native_pool.clamped ~what:"engines" 1);
  List.iter
    (Alcotest.(check string) "clamped pool runs each engine" mixed_digest)
    (O2_native.Native_pool.map ~jobs:clamped mixed_run [ (); (); () ])

let test_serial_engine_unchanged () =
  let e = serial () in
  mixed_workload e;
  Engine.run e;
  Alcotest.(check string) "counters as before" mixed_digest (counters_digest e);
  Alcotest.(check int) "ends where it did" mixed_end (Engine.now e)

(* The same scenario on 1, 2 and 4 worker domains at once: engines share
   no mutable state, so every copy produces the pinned counters. *)
let test_shard_count_invariance () =
  List.iter
    (fun jobs ->
      List.iter
        (Alcotest.(check string)
           (Printf.sprintf "identical on %d domains" jobs)
           mixed_digest)
        (O2_native.Native_pool.map ~jobs mixed_run
           (List.init jobs (fun _ -> ()))))
    [ 1; 2; 4 ]

(* A cross-chip migration lands at depart + the 2000-cycle transfer. *)
let test_cross_chip_migration_timing () =
  let e = serial () in
  ignore
    (Engine.spawn e ~core:(core_on 0) ~name:"t" (fun () ->
         Api.migrate_to (core_on 3);
         Api.compute 10));
  Engine.run e;
  Alcotest.(check int) "migration costs 2000 + 10" 2010
    (Engine.core_clock e (core_on 3))

(* One count per side: [migrations_out] on the source core,
   [migrations_in] on the destination, nothing anywhere else. *)
let test_cross_chip_migration_counters () =
  let e = serial () in
  let m = Engine.machine e in
  ignore
    (Engine.spawn e ~core:(core_on 0) ~name:"t" (fun () ->
         Api.migrate_to (core_on 3)));
  Engine.run e;
  Alcotest.(check int) "out counted on the source" 1
    (Machine.counters m (core_on 0)).Counters.migrations_out;
  Alcotest.(check int) "in counted on the destination" 1
    (Machine.counters m (core_on 3)).Counters.migrations_in;
  let total f =
    Array.fold_left (fun a c -> a + f c) 0 (Machine.all_counters m)
  in
  Alcotest.(check int) "one out in total" 1
    (total (fun c -> c.Counters.migrations_out));
  Alcotest.(check int) "one in in total" 1
    (total (fun c -> c.Counters.migrations_in))

(* A thread spawned mid-run from a control event onto a chip that has
   sat idle starts at the event's time, not at the idle core's lagging
   clock: it lands on the far chip one transfer after the spawn. *)
let test_mid_run_spawn () =
  let e = serial () in
  let spawn_at = 9_000 in
  Engine.at e ~time:spawn_at (fun ~now:_ ->
      ignore
        (Engine.spawn e ~core:(core_on 1) ~name:"late" (fun () ->
             Api.migrate_to (core_on 2);
             Api.compute 10)));
  Engine.run e;
  Alcotest.(check int) "late thread ran to completion" 0
    (Engine.live_threads e);
  Alcotest.(check int) "lands one transfer after the spawn"
    (spawn_at + 2010)
    (Engine.core_clock e (core_on 2))

(* Presence masks are multi-word (32 bits per word): on future64 (8x8 =
   64 cores) core 63 lives in the second mask word. The same lines
   touched from core 0 and core 63 give the pinned counters on 1 and 2
   worker domains. *)
let wide_digest = "07304db0ee61bde76a388a359df6fcca"

let wide_run () =
  let m = Machine.create Config.future64 in
  let e = Engine.create m in
  let last = Config.cores Config.future64 - 1 in
  (* hits, invalidations and presence all use the top bit of the mask *)
  ignore
    (Engine.spawn e ~core:last ~name:"hi" (fun () ->
         ignore (Api.read ~addr:0 ~len:4096);
         Api.compute 500;
         ignore (Api.write ~addr:0 ~len:4096)));
  ignore
    (Engine.spawn e ~core:0 ~name:"lo" (fun () ->
         ignore (Api.read ~addr:0 ~len:4096);
         Api.compute 9000;
         ignore (Api.read ~addr:0 ~len:4096)));
  Engine.run e;
  let c63 = Machine.counters m last in
  Alcotest.(check bool) "core 63 invalidated core 0's copies" true
    (c63.Counters.invalidations_sent > 0);
  counters_digest e

let test_wide_config_shards () =
  List.iter
    (fun jobs ->
      List.iter
        (Alcotest.(check string)
           (Printf.sprintf "64-core counters on %d domains" jobs)
           wide_digest)
        (O2_native.Native_pool.map ~jobs wide_run
           (List.init jobs (fun _ -> ()))))
    [ 1; 2 ]

let lock_on_chip ~chip_of_lock ~hold =
  let e = serial () in
  let m = Engine.machine e in
  let l = Spinlock.create (Machine.memory m) ~name:"l" in
  let home = Topology.home_chip (Machine.topology m) ~addr:l.Spinlock.addr in
  let core = core_on (chip_of_lock home) in
  ignore
    (Engine.spawn e ~core ~name:"t" (fun () ->
         Api.lock l;
         Api.compute hold;
         Api.unlock l));
  Engine.run e;
  (e, l, core)

(* A lock taken on its home chip: one uncontended acquisition, no
   spinning. *)
let test_same_chip_lock_is_serial () =
  let e, l, core = lock_on_chip ~chip_of_lock:Fun.id ~hold:50 in
  Alcotest.(check int) "one acquisition" 1 l.Spinlock.acquisitions;
  Alcotest.(check int) "uncontended" 0 l.Spinlock.contended;
  Alcotest.(check int) "no spin cycles" 0
    (Machine.counters (Engine.machine e) core).Counters.spin_cycles

(* A lock taken from another chip pays for the line's trip across the
   interconnect: the same lock/compute/unlock ends later than on the
   home chip, at the pinned cycle, and the lock is free afterwards. *)
let test_remote_lock_round_trip () =
  let home_e, _, home_core = lock_on_chip ~chip_of_lock:Fun.id ~hold:50 in
  let e, l, core =
    lock_on_chip ~chip_of_lock:(fun h -> (h + 1) mod cfg.Config.chips) ~hold:50
  in
  Alcotest.(check int) "one acquisition" 1 l.Spinlock.acquisitions;
  Alcotest.(check int) "home-chip acquire ends at" 269
    (Engine.core_clock home_e home_core);
  Alcotest.(check int) "remote acquire ends at" 389
    (Engine.core_clock e core);
  Alcotest.(check bool) "lock free again" false (Spinlock.held l)

(* Contended acquisition across chips: the waiter spins until the home
   chip's holder releases; both acquisitions count and the lock ends up
   free. *)
let test_remote_lock_contention () =
  let e = serial () in
  let m = Engine.machine e in
  let l = Spinlock.create (Machine.memory m) ~name:"l" in
  let home = Topology.home_chip (Machine.topology m) ~addr:l.Spinlock.addr in
  let other = (home + 2) mod cfg.Config.chips in
  let spawn_locker chip hold =
    ignore
      (Engine.spawn e ~core:(core_on chip) ~name:"locker" (fun () ->
           Api.lock l;
           Api.compute hold;
           Api.unlock l))
  in
  spawn_locker home 5000;
  spawn_locker other 100;
  Engine.run e;
  Alcotest.(check int) "both acquired" 2 l.Spinlock.acquisitions;
  Alcotest.(check bool) "someone waited" true (l.Spinlock.contended >= 1);
  Alcotest.(check bool) "the waiter spun" true
    ((Machine.counters m (core_on other)).Counters.spin_cycles > 0);
  Alcotest.(check bool) "released at the end" false (Spinlock.held l)

(* Releasing a lock the thread does not hold, from another chip, raises
   out of [run]. *)
let test_remote_release_not_owner () =
  let e = serial () in
  let m = Engine.machine e in
  let l = Spinlock.create (Machine.memory m) ~name:"l" in
  let home = Topology.home_chip (Machine.topology m) ~addr:l.Spinlock.addr in
  let remote_chip = (home + 1) mod cfg.Config.chips in
  ignore
    (Engine.spawn e ~core:(core_on remote_chip) ~name:"t" (fun () ->
         Api.unlock l));
  Alcotest.(check bool) "ownership check raises" true
    (try
       Engine.run e;
       false
     with Engine.Not_lock_owner _ -> true)

(* Pausing at a horizon mid-run and resuming is equivalent to one
   uninterrupted run. *)
let test_window_resume () =
  let paused =
    let e = serial () in
    mixed_workload e;
    Engine.run ~until:(mixed_end / 2) e;
    Alcotest.(check bool) "paused mid-run" true (Engine.live_threads e > 0);
    Engine.run ~until:(2 * mixed_end) e;
    counters_digest e
  in
  Alcotest.(check string) "identical counters" mixed_digest paused

(* [stop_when] is checked after every event: the run halts at exactly
   the requested event count, and a second [run] finishes the workload
   with the uninterrupted counters. *)
let test_stop_when_halts () =
  let e = serial () in
  mixed_workload e;
  Engine.run ~stop_when:(fun () -> Engine.events_processed e >= 100) e;
  Alcotest.(check int) "halted after the 100th event" 100
    (Engine.events_processed e);
  Alcotest.(check bool) "workload still running" true
    (Engine.live_threads e > 0);
  Engine.run e;
  Alcotest.(check string) "resumed run matches" mixed_digest
    (counters_digest e)

(* Observers only observe: a machine with one attached gives the
   unobserved counters, and the observer saw the traffic. *)
let test_observed_machine_unchanged () =
  let m = machine () in
  let accesses = ref 0 in
  Machine.observe m
    {
      Machine.on_access = (fun ~now:_ ~core:_ ~line:_ ~source:_ -> incr accesses);
      on_fill = (fun ~cache:_ ~line:_ ~victim:_ -> ());
      on_remove = (fun ~cache:_ ~line:_ -> ());
    };
  let e = Engine.create m in
  mixed_workload e;
  Engine.run e;
  Alcotest.(check string) "counters unchanged" mixed_digest (counters_digest e);
  Alcotest.(check bool) "observer saw the accesses" true (!accesses > 0)

(* --------------------------------------------------------------- *)
(* Event ordering (qcheck): control events fire in (time, posting
   order), and an event posted before the current time is refused.   *)

let prop_same_time_fifo =
  QCheck2.Test.make ~name:"same-time events fire in posting order" ~count:200
    QCheck2.Gen.(list_size (int_range 1 40) (int_range 0 5))
    (fun offsets ->
      let e = serial () in
      let order = ref [] in
      List.iteri
        (fun i off ->
          Engine.at e ~time:(1000 + off) (fun ~now:_ -> order := i :: !order))
        offsets;
      Engine.run e;
      let expected =
        List.mapi (fun i off -> (off, i)) offsets
        |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd
      in
      List.rev !order = expected)

let prop_past_event_rejected =
  QCheck2.Test.make ~name:"an event posted in the past is rejected" ~count:100
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 1 1000))
    (fun (deadline, short) ->
      let e = serial () in
      let outcome = ref None in
      Engine.at e ~time:deadline (fun ~now ->
          let rejected =
            try
              Engine.at e ~time:(now - min short now) (fun ~now:_ -> ());
              false
            with Invalid_argument _ -> true
          in
          let same_time_ok =
            try
              Engine.at e ~time:now (fun ~now:_ -> ());
              true
            with Invalid_argument _ -> false
          in
          outcome := Some (rejected && same_time_ok));
      Engine.run e;
      !outcome = Some true)

(* Random compute/read/write interleavings against a shared line: the
   counters are the same whether the engine runs on the calling domain
   or on a worker, and every access is counted once. *)
let prop_random_invariance =
  QCheck2.Test.make
    ~name:"random cross-chip traffic: counters are domain-independent"
    ~count:15
    QCheck2.Gen.(
      list_size (int_range 4 12)
        (triple (int_range 0 15) (int_range 1 400) bool))
    (fun plan ->
      let run () =
        let e = serial () in
        let mem = Machine.memory (Engine.machine e) in
        let shared = Memsys.alloc_isolated mem ~name:"s" ~size:64 in
        List.iteri
          (fun i (core, gap, write) ->
            ignore
              (Engine.spawn e ~core ~name:(Printf.sprintf "t%d" i) (fun () ->
                   for _ = 1 to 10 do
                     Api.compute gap;
                     if write then
                       ignore (Api.write ~addr:shared.Memsys.base ~len:8)
                     else ignore (Api.read ~addr:shared.Memsys.base ~len:8)
                   done)))
          plan;
        Engine.run e;
        let total f =
          Array.fold_left (fun a c -> a + f c) 0
            (Machine.all_counters (Engine.machine e))
        in
        ( counters_digest e,
          total (fun c -> c.Counters.loads),
          total (fun c -> c.Counters.stores) )
      in
      let ((_, loads, stores) as inline) = run () in
      let writes = List.length (List.filter (fun (_, _, w) -> w) plan) in
      let on_workers = O2_native.Native_pool.map ~jobs:2 run [ (); () ] in
      (* a write loads its line before storing to it *)
      loads = 10 * List.length plan
      && stores = 10 * writes
      && List.for_all (( = ) inline) on_workers)

(* --------------------------------------------------------------- *)
(* Harness-level goldens: the fig4(a)/(b)-small sweeps, the ablation
   grid and E10's 64-core config over 1M+1M horizons (the serial
   goldens in suite_experiments use 2M+2M), each sweep's cells sharded
   over 1, 2 and 4 worker domains with bit-identical rows.              *)

open O2_experiments

let digest_points (points : Harness.point list) =
  Digest.to_hex (Digest.string (Marshal.to_string points []))

let golden_cells ?(cfg = Config.amd16) ~oscillation kbs =
  List.concat_map
    (fun kb ->
      let spec = O2_workload.Dir_workload.spec_for_data_kb ~kb () in
      List.map
        (fun policy ->
          Harness.setup ~cfg ~policy ~warmup:1_000_000 ~measure:1_000_000
            ?oscillation spec)
        [ Coretime.Policy.baseline; Coretime.Policy.default ])
    kbs

let golden_ablation_cells () =
  let spec = O2_workload.Dir_workload.spec_for_data_kb ~kb:1024 () in
  List.map
    (fun policy ->
      Harness.setup ~policy ~warmup:1_000_000 ~measure:1_000_000 spec)
    [
      Coretime.Policy.baseline;
      { Coretime.Policy.default with Coretime.Policy.evict_for_hotter = true };
      { Coretime.Policy.default with Coretime.Policy.replicate_read_only = true };
      { Coretime.Policy.default with Coretime.Policy.op_shipping = true };
      { Coretime.Policy.default with Coretime.Policy.clustering = true };
    ]

let check_sharded_golden name cells ~digest ~total_ops =
  List.iter
    (fun jobs ->
      let points = Harness.run_cells ~jobs cells in
      Alcotest.(check int)
        (Printf.sprintf "%s: total ops (jobs=%d)" name jobs)
        total_ops
        (List.fold_left (fun a p -> a + p.Harness.ops) 0 points);
      Alcotest.(check string)
        (Printf.sprintf "%s: digest (jobs=%d)" name jobs)
        digest (digest_points points))
    [ 1; 2; 4 ]

let test_golden_fig4a_sharded () =
  check_sharded_golden "fig4a-small-sharded"
    (golden_cells ~oscillation:None [ 256; 1024 ])
    ~digest:"d005da2745b71b1ccc80ecb36a7fdcb1" ~total_ops:1712

let test_golden_fig4b_sharded () =
  check_sharded_golden "fig4b-small-sharded"
    (golden_cells
       ~oscillation:(Some { Harness.period = 500_000; divisor = 4 })
       [ 256; 1024 ])
    ~digest:"c9194107856645e6cc9ddebff06dc684" ~total_ops:1531

let test_golden_ablations_sharded () =
  check_sharded_golden "ablation-small-sharded" (golden_ablation_cells ())
    ~digest:"c493abbdb410a01f1e4cfedf9cd18ac2" ~total_ops:813

(* E10's 64-core config at 1 MB of data; suite_experiments pins the
   256 KB cells. *)
let test_golden_future_sharded () =
  check_sharded_golden "future64-small-sharded (E10)"
    (golden_cells ~cfg:Config.future64 ~oscillation:None [ 1024 ])
    ~digest:"19725d3237c966caf2e697504808e093" ~total_ops:909

(* [run_cells ~attach] calls the hook once per cell, on whichever domain
   runs it, with the cell's index; observing leaves the rows unchanged. *)
let test_attach_every_cell () =
  let cells =
    List.map
      (fun kb ->
        Harness.setup ~warmup:1000 ~measure:1000
          (O2_workload.Dir_workload.spec_for_data_kb ~kb ()))
      [ 256; 512; 1024 ]
  in
  let seen = Array.make (List.length cells) 0 in
  let attached =
    Harness.run_cells ~jobs:2
      ~attach:(fun i _engine -> seen.(i) <- seen.(i) + 1)
      cells
  in
  Alcotest.(check (list int)) "one call per cell" [ 1; 1; 1 ]
    (Array.to_list seen);
  Alcotest.(check string) "rows unchanged by attaching"
    (digest_points (Harness.run_cells ~jobs:1 cells))
    (digest_points attached)

let suite =
  [
    Alcotest.test_case "horizons are exact, not window-granular" `Quick
      test_exact_horizon;
    Alcotest.test_case "smoke" `Quick test_smoke;
    Alcotest.test_case "oversubscribed shards clamp" `Quick
      test_shards_clamped;
    Alcotest.test_case "serial engine unchanged" `Quick
      test_serial_engine_unchanged;
    Alcotest.test_case "shard-count invariance" `Quick
      test_shard_count_invariance;
    Alcotest.test_case "cross-chip migration timing" `Quick
      test_cross_chip_migration_timing;
    Alcotest.test_case "cross-chip migration counters" `Quick
      test_cross_chip_migration_counters;
    Alcotest.test_case "mid-run spawn clamps to the control event's time"
      `Quick test_mid_run_spawn;
    Alcotest.test_case "wide config shards bit-identically" `Quick
      test_wide_config_shards;
    Alcotest.test_case "same-chip lock is serial" `Quick
      test_same_chip_lock_is_serial;
    Alcotest.test_case "remote lock round trip" `Quick
      test_remote_lock_round_trip;
    Alcotest.test_case "remote lock contention" `Quick
      test_remote_lock_contention;
    Alcotest.test_case "remote release ownership check" `Quick
      test_remote_release_not_owner;
    Alcotest.test_case "window resume" `Quick test_window_resume;
    Alcotest.test_case "stop_when halts the run" `Quick test_stop_when_halts;
    Alcotest.test_case "observed machine runs unchanged" `Quick
      test_observed_machine_unchanged;
    QCheck_alcotest.to_alcotest prop_same_time_fifo;
    QCheck_alcotest.to_alcotest prop_past_event_rejected;
    QCheck_alcotest.to_alcotest prop_random_invariance;
    Alcotest.test_case "golden fig4a sharded" `Slow test_golden_fig4a_sharded;
    Alcotest.test_case "golden fig4b sharded" `Slow test_golden_fig4b_sharded;
    Alcotest.test_case "golden ablations sharded" `Slow
      test_golden_ablations_sharded;
    Alcotest.test_case "golden future64 sharded (E10)" `Slow
      test_golden_future_sharded;
    Alcotest.test_case "attach runs on every cell" `Quick
      test_attach_every_cell;
  ]
