(* Steady-state allocation probes for the simulator's three hot paths:
   the event queue (innermost engine loop), Machine.read (every simulated
   memory access), and the FAT directory scan (the workload's kernel).
   Each loop runs after a warmup access and must stay within a small
   fixed slack — per-operation allocation would show up as tens of
   thousands of minor words. *)

open O2_simcore

let iters = 10_000

(* Gc.minor_words returns a boxed float (2-3 words per call), and the
   Alcotest plumbing around the probe may allocate a little; anything
   per-op would cost >= iters words. *)
let slack = 256.0

let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Every word a call allocates: minor plus direct-to-major, net of
   promotion. Gc.counters' minor figure lags the young heap on OCaml 5.1,
   so the minor words come from Gc.minor_words (exact for this domain). *)
let words_during f =
  let minor0 = Gc.minor_words () in
  let _, promoted0, major0 = Gc.counters () in
  let r = f () in
  let _, promoted1, major1 = Gc.counters () in
  let minor1 = Gc.minor_words () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

let check_zero_alloc name words =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f minor words over %d ops (slack %.0f)" name words
       iters slack)
    true
    (words <= slack)

let test_event_queue () =
  let q : int O2_runtime.Event_queue.t = O2_runtime.Event_queue.create () in
  (* preload to final depth so the arrays never grow inside the probe *)
  for i = 1 to 1024 do
    O2_runtime.Event_queue.push q ~time:i i
  done;
  let words =
    minor_words_during (fun () ->
        for i = 1025 to 1024 + iters do
          ignore (O2_runtime.Event_queue.min_time q);
          ignore (O2_runtime.Event_queue.pop_min q);
          O2_runtime.Event_queue.push q ~time:i i
        done)
  in
  check_zero_alloc "event_queue push+min_time+pop_min" words

let test_machine_read_l1_hit () =
  let machine = Machine.create Config.amd16 in
  let ext = Memsys.alloc (Machine.memory machine) ~name:"probe" ~size:64 in
  let addr = ext.Memsys.base in
  ignore (Machine.read machine ~core:0 ~now:0 ~addr ~len:8);
  let words =
    minor_words_during (fun () ->
        for i = 1 to iters do
          ignore (Machine.read machine ~core:0 ~now:i ~addr ~len:8)
        done)
  in
  check_zero_alloc "Machine.read L1 hit" words

let test_machine_write_l1_hit () =
  let machine = Machine.create Config.amd16 in
  let ext = Memsys.alloc (Machine.memory machine) ~name:"probe" ~size:64 in
  let addr = ext.Memsys.base in
  ignore (Machine.write machine ~core:0 ~now:0 ~addr ~len:8);
  let words =
    minor_words_during (fun () ->
        for i = 1 to iters do
          ignore (Machine.write machine ~core:0 ~now:i ~addr ~len:8)
        done)
  in
  check_zero_alloc "Machine.write L1 hit" words

(* The run path: a 4 KB read whose 64 lines are all in L1 is one run of
   L1 hits, and a cycle of 4 KB reads over 128 KB (past the 64 KB L1,
   inside the 512 KB L2) makes every read a run of L2 hits that fills the
   L1 line by line, each fill evicting, then relinks the L2 once. *)
let test_machine_read_runs () =
  let machine = Machine.create Config.amd16 in
  let mem = Machine.memory machine in
  let page = 4096 in
  let hot = (Memsys.alloc mem ~name:"hot" ~size:page).Memsys.base in
  ignore (Machine.read machine ~core:0 ~now:0 ~addr:hot ~len:page);
  let words =
    minor_words_during (fun () ->
        for i = 1 to iters do
          ignore (Machine.read machine ~core:0 ~now:i ~addr:hot ~len:page)
        done)
  in
  check_zero_alloc "Machine.read run of L1 hits" words;
  let span = 32 * page in
  let wide = (Memsys.alloc mem ~name:"wide" ~size:span).Memsys.base in
  for k = 0 to 63 do
    ignore
      (Machine.read machine ~core:0 ~now:k ~addr:(wide + (k mod 32 * page))
         ~len:page)
  done;
  let c = Machine.counters machine 0 in
  let l2_before = c.Counters.l2_hits in
  let words =
    minor_words_during (fun () ->
        for i = 1 to iters do
          ignore
            (Machine.read machine ~core:0 ~now:i
               ~addr:(wide + (i mod 32 * page))
               ~len:page)
        done)
  in
  Alcotest.(check int) "every line an L2 hit" (iters * 64)
    (c.Counters.l2_hits - l2_before);
  check_zero_alloc "Machine.read run of L2 hits" words

(* The directory-scan kernel shared by Fat_dir.find and Fat_dir.lookup_sim
   (lookup_sim adds only Api.read/compute charges on top of the same
   scan_cluster walk). A missing name scans every entry of every cluster
   through the in-place 8.3 comparison and must not allocate. *)
let test_fat_scan_miss () =
  let machine = Machine.create Config.amd16 in
  let mem = Machine.memory machine in
  let fs = O2_fs.Fat.format mem ~label:"probe" ~clusters:128 () in
  let dir =
    match O2_fs.Fat.mkdir fs "d0" with
    | Ok d -> d
    | Error e -> Alcotest.failf "mkdir: %s" e
  in
  let names83 =
    Array.init 100 (fun i ->
        O2_fs.Fat_name.to_83_exn (Printf.sprintf "f%d.dat" i))
  in
  (match O2_fs.Fat.populate fs [| dir |] ~names83 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "populate: %s" e);
  let img = O2_fs.Fat.image fs in
  let head = dir.O2_fs.Fat.head in
  let name83 = O2_fs.Fat_name.to_83_exn "nope.dat" in
  Alcotest.(check bool) "name really absent" true
    (O2_fs.Fat_dir.find img ~head ~name83 = None);
  let words =
    minor_words_during (fun () ->
        for _ = 1 to iters do
          ignore (O2_fs.Fat_dir.find img ~head ~name83)
        done)
  in
  check_zero_alloc "Fat_dir.find miss (100-entry dir)" words

(* The simulated lookup, Fat_dir.lookup_sim, around the same scan: its
   walk and its charges are top-level functions, so a lookup allocates
   nothing of its own beyond the reads and computes it performs and the
   entry it returns. The effects are answered by a handler here instead
   of the engine, and a baseline loop performs the same effects in the
   same order under the same handler; the difference between the two is
   the lookup's own allocation. The directory spans seven 512-byte
   clusters, so a lookup walks six FAT links. *)
let effects_answered = ref 0

let answer_effects f =
  Effect.Deep.try_with f ()
    {
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | O2_runtime.Api.Read _ ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  incr effects_answered;
                  Effect.Deep.continue k 0)
          | O2_runtime.Api.Compute _ ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  incr effects_answered;
                  Effect.Deep.continue k ())
          | _ -> None);
    }

let lookup_entry_words = 10.0 (* Some + 4-field record + 11-byte string *)

let test_fat_lookup_sim () =
  let mem = Memsys.create ~line_bytes:64 () in
  let fs = O2_fs.Fat.format mem ~label:"probe" ~cluster_bytes:512 ~clusters:64 () in
  let dir =
    match O2_fs.Fat.mkdir fs "d0" with
    | Ok d -> d
    | Error e -> Alcotest.failf "mkdir: %s" e
  in
  let names83 =
    Array.init 100 (fun i ->
        O2_fs.Fat_name.to_83_exn (Printf.sprintf "f%d.dat" i))
  in
  (match O2_fs.Fat.populate fs [| dir |] ~names83 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "populate: %s" e);
  let img = O2_fs.Fat.image fs in
  let head = dir.O2_fs.Fat.head in
  let clusters = List.length (O2_fs.Fat_image.chain img head) in
  Alcotest.(check int) "seven clusters" 7 clusters;
  let lookups name83 () =
    for _ = 1 to iters do
      ignore (O2_fs.Fat_dir.lookup_sim img ~head ~name83 ~compare_cycles:2)
    done
  in
  let same_effects () =
    for _ = 1 to iters do
      for c = 1 to clusters do
        ignore (O2_runtime.Api.read ~addr:c ~len:32);
        O2_runtime.Api.compute 2;
        if c < clusters then ignore (O2_runtime.Api.read ~addr:c ~len:2)
      done
    done
  in
  let measure f =
    effects_answered := 0;
    let words = minor_words_during (fun () -> answer_effects f) in
    (words, !effects_answered)
  in
  let base, base_effects = measure same_effects in
  let miss, miss_effects =
    measure (lookups (O2_fs.Fat_name.to_83_exn "nope.dat"))
  in
  let hit, hit_effects = measure (lookups (O2_fs.Fat_name.to_83_exn "f99.dat")) in
  Alcotest.(check int) "a miss performs the baseline's effects" base_effects
    miss_effects;
  Alcotest.(check int) "so does a hit in the last cluster" base_effects
    hit_effects;
  check_zero_alloc "Fat_dir.lookup_sim miss, net of its effects" (miss -. base);
  Alcotest.(check bool)
    (Printf.sprintf
       "Fat_dir.lookup_sim hit: %.0f words net of its effects over %d hits \
        (bound %.0f per entry + slack)"
       (hit -. base) iters lookup_entry_words)
    true
    (hit -. base <= (lookup_entry_words *. float_of_int iters) +. slack)

(* Volume population encodes the names once per call and copies the
   encoded run into each directory: the words one Fat.populate call
   allocates (minor plus direct-to-major, net of promotion) may grow by at
   most [populate_words_per_dir] per extra directory. Encoding per
   directory (a 32 KB run each) or building per-entry records or 8.3 names
   per directory costs thousands of words per directory instead. *)
let populate_words_per_dir = 64.0

let populate_words ~dirs =
  let mem = Memsys.create ~line_bytes:64 () in
  let fs =
    O2_fs.Fat.format mem ~label:"probe" ~clusters:((dirs * 8) + 16) ()
  in
  let ds =
    Array.init dirs (fun i ->
        match O2_fs.Fat.mkdir fs (Printf.sprintf "d%d" i) with
        | Ok d -> d
        | Error e -> Alcotest.failf "mkdir: %s" e)
  in
  let names83 =
    Array.init 1000 (fun i ->
        O2_fs.Fat_name.to_83_exn (Printf.sprintf "f%d.dat" i))
  in
  let r, words = words_during (fun () -> O2_fs.Fat.populate fs ds ~names83) in
  (match r with Ok () -> () | Error e -> Alcotest.failf "populate: %s" e);
  words

let test_fat_populate_per_dir () =
  let one = populate_words ~dirs:1 in
  let many = populate_words ~dirs:64 in
  let bound = one +. (63.0 *. populate_words_per_dir) in
  Alcotest.(check bool)
    (Printf.sprintf
       "populate 1000 names: %.0f words for 64 dirs, %.0f for 1 (bound %.0f)"
       many one bound)
    true (many <= bound)

(* Op programs share their immutable ops: one call allocates the result
   array, the sharing tables (one word per table slot) and one block per
   distinct op value it draws, and only [Put] carries a fresh value. At
   the perfbench sizes a block per op would cost tens of thousands of
   words beyond these bounds. *)
let program_ops = 20_000
let program_slack = 64.0

let test_program_generation_words () =
  let module Op = O2_native.Op_program in
  let dirs = 24 and entries_per_dir = 48 in
  let _, words =
    words_during (fun () ->
        Op.dir_program ~dirs ~entries_per_dir ~ops:program_ops ~seed:7919)
  in
  let pairs = dirs * (entries_per_dir + 4) in
  (* a pair block is 3 words, plus its table slot *)
  let bound =
    float_of_int (program_ops + 1 + (4 * pairs)) +. program_slack
  in
  Alcotest.(check bool)
    (Printf.sprintf "dir_program: %.0f words for %d ops (bound %.0f)" words
       program_ops bound)
    true (words <= bound);
  let clients = 8 and client = 3 and keyspace = 1024 in
  let prog, words =
    words_during (fun () ->
        Op.kv_program ~clients ~client ~ops:program_ops ~keyspace ~seed:7919)
  in
  let puts =
    Array.fold_left
      (fun n op -> match op with Op.Put _ -> n + 1 | _ -> n)
      0 prog
  in
  let own_keys = (keyspace - client + clients - 1) / clients in
  (* a Put is 3 words; per own key, a Get and a Delete block of 2 words
     each plus a slot in each of the two tables *)
  let bound =
    float_of_int (program_ops + 1 + (3 * puts) + (6 * own_keys))
    +. program_slack
  in
  Alcotest.(check bool)
    (Printf.sprintf "kv_program: %.0f words for %d ops, %d puts (bound %.0f)"
       words program_ops puts bound)
    true (words <= bound)

(* The cache observatory's zero-cost-when-off claim, miss-path edition:
   with no Machine.observe subscriber the notification sites on the fill,
   eviction, invalidation and access-source paths are single branches.
   Stream a working set that fits L2 but not L1 so every post-warmup read
   is an L1 fill with a victim (on_access + on_fill sites), then ping-pong
   a line between two cores so every round invalidates a present copy
   (the on_remove site). *)
let test_machine_miss_paths_unobserved () =
  let machine = Machine.create Config.amd16 in
  let mem = Machine.memory machine in
  let lines = 2048 (* 128 KB: 2x the 1024-line L1, inside the 8192-line L2 *) in
  let ext = Memsys.alloc mem ~name:"stream" ~size:(lines * 64) in
  let base = ext.Memsys.base in
  Alcotest.(check bool) "no observer installed" false (Machine.observed machine);
  (* warmup: pull the whole set into L2 *)
  for i = 0 to lines - 1 do
    ignore (Machine.read machine ~core:0 ~now:i ~addr:(base + (i * 64)) ~len:8)
  done;
  let words =
    minor_words_during (fun () ->
        for i = 1 to iters do
          ignore
            (Machine.read machine ~core:0 ~now:(lines + i)
               ~addr:(base + (i mod lines * 64))
               ~len:8)
        done)
  in
  check_zero_alloc "Machine.read L1 fill+evict, no observer" words;
  let ping = Memsys.alloc mem ~name:"ping" ~size:64 in
  let addr = ping.Memsys.base in
  ignore (Machine.read machine ~core:1 ~now:0 ~addr ~len:8);
  ignore (Machine.write machine ~core:2 ~now:1 ~addr ~len:8);
  let words =
    minor_words_during (fun () ->
        for i = 1 to iters do
          ignore (Machine.read machine ~core:1 ~now:(2 * i) ~addr ~len:8);
          ignore (Machine.write machine ~core:2 ~now:((2 * i) + 1) ~addr ~len:8)
        done)
  in
  check_zero_alloc "coherence invalidation, no observer" words

(* The flat presence directory's nearest-holder scans, probed directly:
   per-line mask words anded with the per-chip hop-distance class masks
   (built as Machine.create builds them) and the chip mask walked against
   the hop matrix, exactly as Machine's miss path drives them. No
   options, no closures, no refs — a scan is loads and shifts only. *)
let test_presence_scan_zero_alloc () =
  let cfg = Config.amd16 in
  let ncores = Config.cores cfg in
  let nchips = cfg.Config.chips in
  let p = Presence.create ~cores:ncores in
  let topo = Topology.create cfg in
  let chip_of = Array.init ncores (Config.chip_of_core cfg) in
  let hops =
    Array.init (nchips * nchips) (fun i ->
        Topology.hops topo (i / nchips) (i mod nchips))
  in
  let classes = Presence.hop_classes p ~chip_of ~hops ~nchips in
  (* scatter holders so scans cross distance classes and chips *)
  for line = 0 to 255 do
    Presence.set_core p ~line ~core:(line mod ncores);
    Presence.set_chip p ~line ~chip:(line mod nchips)
  done;
  let words =
    minor_words_during (fun () ->
        for i = 1 to iters do
          let line = i land 255 in
          ignore
            (Presence.nearest_core p classes ~line ~exclude_core:0
               ~from_chip:0);
          ignore
            (Presence.nearest_chip_holder p ~line ~exclude_chip:0 ~from_chip:0
               ~hops ~nchips);
          ignore (Presence.cached_anywhere p ~line)
        done)
  in
  check_zero_alloc "presence nearest-holder scans" words

(* The observed counterpart of the miss-path probe: with a (no-op)
   observer subscribed, the notification fan-outs are recursive list
   walks, not closures — so hit, fill+evict and invalidation paths still
   allocate nothing beyond what the observer itself does. *)
let test_machine_paths_observed_noop () =
  let machine = Machine.create Config.amd16 in
  Machine.observe machine
    {
      Machine.on_access = (fun ~now:_ ~core:_ ~line:_ ~source:_ -> ());
      on_fill = (fun ~cache:_ ~line:_ ~victim:_ -> ());
      on_remove = (fun ~cache:_ ~line:_ -> ());
    };
  Alcotest.(check bool) "observer installed" true (Machine.observed machine);
  let mem = Machine.memory machine in
  let hot = Memsys.alloc mem ~name:"hot" ~size:64 in
  ignore (Machine.read machine ~core:0 ~now:0 ~addr:hot.Memsys.base ~len:8);
  let words =
    minor_words_during (fun () ->
        for i = 1 to iters do
          ignore
            (Machine.read machine ~core:0 ~now:i ~addr:hot.Memsys.base ~len:8)
        done)
  in
  check_zero_alloc "observed L1 hit" words;
  let lines = 2048 in
  let ext = Memsys.alloc mem ~name:"stream" ~size:(lines * 64) in
  let base = ext.Memsys.base in
  for i = 0 to lines - 1 do
    ignore (Machine.read machine ~core:0 ~now:i ~addr:(base + (i * 64)) ~len:8)
  done;
  let words =
    minor_words_during (fun () ->
        for i = 1 to iters do
          ignore
            (Machine.read machine ~core:0 ~now:(lines + i)
               ~addr:(base + (i mod lines * 64))
               ~len:8)
        done)
  in
  check_zero_alloc "observed L1 fill+evict stream" words;
  let ping = Memsys.alloc mem ~name:"ping" ~size:64 in
  let addr = ping.Memsys.base in
  ignore (Machine.read machine ~core:1 ~now:0 ~addr ~len:8);
  ignore (Machine.write machine ~core:2 ~now:1 ~addr ~len:8);
  let words =
    minor_words_during (fun () ->
        for i = 1 to iters do
          ignore (Machine.read machine ~core:1 ~now:(2 * i) ~addr ~len:8);
          ignore (Machine.write machine ~core:2 ~now:((2 * i) + 1) ~addr ~len:8)
        done)
  in
  check_zero_alloc "observed coherence invalidation" words

(* The flight recorder's zero-cost-when-idle claim: producers guard event
   construction with Probe.active, so with no subscriber the whole
   emission path — guard included — allocates nothing. (With a recorder
   subscribed each event is a fresh block by design, so that path is not
   allocation-checked.) *)
let test_probe_inactive_emits_nothing () =
  let probe = O2_runtime.Probe.create () in
  Alcotest.(check bool) "probe starts inactive" false
    (O2_runtime.Probe.active probe);
  let words =
    minor_words_during (fun () ->
        for i = 1 to iters do
          if O2_runtime.Probe.active probe then
            O2_runtime.Probe.emit probe
              (O2_runtime.Probe.Mem
                 {
                   time = i;
                   core = 0;
                   tid = 0;
                   kind = O2_runtime.Probe.Load;
                   addr = 0;
                   len = 8;
                 })
        done)
  in
  check_zero_alloc "guarded emit, no recorder" words

(* The PR-4 tentpole: a monitor period over a large table with nothing
   going on must cost nothing. 4096 registered objects, 64 assigned, zero
   ops since the previous step — the quiet path reads per-core counter
   deltas into preallocated scratch, sees no active objects and no
   pressure, and returns without touching the other 4032 entries or the
   allocator. Before the active-set index this step walked (and, for
   demotion, sorted) the full table every period. *)
let test_rebalancer_quiet_step () =
  let machine = Machine.create Config.amd16 in
  let cores = Config.cores Config.amd16 in
  let table = Coretime.Object_table.create ~cores ~budget_per_core:(1 lsl 20) in
  let objs =
    Array.init 4096 (fun i ->
        Coretime.Object_table.register table ~base:(0x1000 + (i * 64)) ~size:64
          ~name:"o" ())
  in
  for i = 0 to 63 do
    Coretime.Object_table.assign table objs.(i) (i mod cores)
  done;
  let rb =
    Coretime.Rebalancer.create Coretime.Policy.default table machine
  in
  let period = Coretime.Policy.default.Coretime.Policy.rebalance_period in
  (* settle: first step swallows whatever the setup produced *)
  Coretime.Rebalancer.step rb ~now:period;
  let words =
    minor_words_during (fun () ->
        for i = 2 to iters + 1 do
          Coretime.Rebalancer.step rb ~now:(i * period)
        done)
  in
  check_zero_alloc "Rebalancer.step quiet period (4096 objects)" words;
  Alcotest.(check bool) "table still consistent" true
    (Result.is_ok (Coretime.Object_table.check_accounting table))

(* Decision provenance rides the same guard: a rebalancer built with a
   probe that nobody subscribed to must not pay for the instrumentation —
   the [decisions_on] / [Probe.active] checks on the Rebalanced and
   Decision emission sites are branches, not event constructions. *)
let test_rebalancer_inactive_probe_step () =
  let machine = Machine.create Config.amd16 in
  let cores = Config.cores Config.amd16 in
  let table = Coretime.Object_table.create ~cores ~budget_per_core:(1 lsl 20) in
  let objs =
    Array.init 256 (fun i ->
        Coretime.Object_table.register table ~base:(0x1000 + (i * 64)) ~size:64
          ~name:"o" ())
  in
  for i = 0 to 63 do
    Coretime.Object_table.assign table objs.(i) (i mod cores)
  done;
  let probe = O2_runtime.Probe.create () in
  Alcotest.(check bool) "probe inactive" false (O2_runtime.Probe.active probe);
  let rb =
    Coretime.Rebalancer.create ~probe Coretime.Policy.default table machine
  in
  let period = Coretime.Policy.default.Coretime.Policy.rebalance_period in
  Coretime.Rebalancer.step rb ~now:period;
  let words =
    minor_words_during (fun () ->
        for i = 2 to iters + 1 do
          Coretime.Rebalancer.step rb ~now:(i * period)
        done)
  in
  check_zero_alloc "Rebalancer.step with inactive probe" words

(* The serial run loop around the event queue: a compute-only workload
   (one spinning thread per chip, probes off) in steady state. Each event
   resumes an effect continuation and schedules the next [Run] closure,
   so the loop cannot be allocation-free; what this pins is the per-event
   figure. Measured: 20.0 minor words per event (36,000 events, OCaml
   5.1.1, no flambda); the bound adds 10% slack. A per-event closure or
   record more in the engine would cross it. *)
let serial_words_per_event_bound = 22.0

let test_serial_run_loop () =
  let open O2_runtime in
  let cfg = Config.amd16 in
  let warmup = 90_000 and horizon = 540_000 in
  let chip_of = Config.chip_of_core cfg in
  let first_core_of chip =
    let rec find c = if chip_of c = chip then c else find (c + 1) in
    find 0
  in
  let e = Engine.create (Machine.create cfg) in
  for chip = 0 to cfg.Config.chips - 1 do
    ignore
      (Engine.spawn e ~core:(first_core_of chip) ~name:"spin" (fun () ->
           let rec loop () =
             Api.compute 50;
             loop ()
           in
           loop ()))
  done;
  Engine.run e ~until:warmup;
  let events0 = Engine.events_processed e in
  let words = minor_words_during (fun () -> Engine.run e ~until:horizon) in
  let events = Engine.events_processed e - events0 in
  let per_event = words /. float_of_int events in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per event over %d events (bound %.1f)"
       per_event events serial_words_per_event_bound)
    true
    (per_event <= serial_words_per_event_bound)

(* The PR-10 tentpole's zero-cost-when-off claim, steal-path edition:
   the worker loop's shape — deque traffic plus a cached-bool telemetry
   guard in front of a prefetched (inert) sink — allocates nothing when
   the recorder is detached. Mirrors Native_pool.loop's structure
   without needing a second domain for the Gc.minor_words read. *)
let test_native_steal_path_telemetry_off () =
  let tel = O2_runtime.Telemetry.off in
  Alcotest.(check bool) "off is disabled" false
    (O2_runtime.Telemetry.enabled tel);
  let sinks = O2_runtime.Telemetry.sink_array tel ~n:1 in
  let tel_on = O2_runtime.Telemetry.enabled tel in
  let d = O2_native.Deque.create ~capacity:64 ~dummy:(-1) () in
  for i = 0 to 15 do
    O2_native.Deque.push d i
  done;
  let words =
    minor_words_during (fun () ->
        for i = 1 to iters do
          O2_native.Deque.push d i;
          let v = O2_native.Deque.steal d in
          if v >= 0 && tel_on then
            O2_runtime.Telemetry.note_steal sinks.(0) ~victim:0
        done)
  in
  check_zero_alloc "deque steal path, telemetry off" words

(* An empty op body for the with_op probes below: closed, so passing it
   builds nothing. *)
let nop () () () = ()

(* The dispatch paths: with_op on the op's home domain (no ship, no
   effect) and a local read of a never-written object (the grace
   period's pass, then the body in place) with telemetry off must not
   allocate — the instrumentation is a cached-bool branch and two zero
   loads.
   Gc.minor_words is per-domain, so the probes run inside the worker and
   hand their readings out through a preallocated slot. *)
let test_native_with_op_telemetry_off () =
  let b = O2_native.Native_backend.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> O2_native.Native_backend.shutdown b)
    (fun () ->
      let read = O2_native.Native_backend.register b ~size:64 ~name:"read" in
      let homed = O2_native.Native_backend.register b ~size:64 ~name:"homed" in
      let out = Array.make 2 0.0 in
      let probe i o =
        for _ = 1 to 100 do
          O2_native.Native_backend.with_op b o nop () () ()
        done;
        out.(i) <-
          minor_words_during (fun () ->
              for _ = 1 to iters do
                O2_native.Native_backend.with_op b o nop () () ()
              done)
      in
      O2_native.Native_backend.spawn b ~core:0 ~name:"probe" (fun () ->
          O2_native.Native_backend.with_op b ~write:true homed nop () () ();
          probe 0 homed;
          probe 1 read);
      O2_native.Native_backend.run b;
      check_zero_alloc "native with_op at home, telemetry off" out.(0);
      check_zero_alloc "native local read, telemetry off" out.(1))

(* A first write's claim path: the home flip, the generation bump, the
   peer's wake-up and the spin on its ack, for objects homed where the
   probe runs (so no write ships). Two domains, so the spin really
   waits on a peer. *)
let test_native_first_write_claim () =
  let b = O2_native.Native_backend.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> O2_native.Native_backend.shutdown b)
    (fun () ->
      let warm = 100 in
      let objs =
        Array.init
          (2 * (warm + iters))
          (fun _ -> O2_native.Native_backend.register b ~size:64 ~name:"claim")
      in
      let out = Array.make 1 0.0 in
      let claim me i =
        O2_native.Native_backend.with_op b ~write:true objs.((2 * i) + me) nop
          () () ()
      in
      O2_native.Native_backend.spawn b ~core:0 ~name:"probe" (fun () ->
          let me =
            O2_native.Native_pool.current_domain
              (O2_native.Native_backend.pool b)
          in
          for i = 0 to warm - 1 do
            claim me i
          done;
          out.(0) <-
            minor_words_during (fun () ->
                for i = warm to warm + iters - 1 do
                  claim me i
                done));
      O2_native.Native_backend.run b;
      check_zero_alloc "native first write (claim path), telemetry off"
        out.(0))

(* With the clock an untagged C stub, a metrics-only recorder
   (ring_capacity:0) adds no allocation to with_op either: two clock
   reads and flat int stores into the worker's own sink. *)
let test_native_with_op_metrics_only () =
  let tel = O2_runtime.Telemetry.create ~ring_capacity:0 ~domains:1 () in
  let b = O2_native.Native_backend.create ~telemetry:tel ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> O2_native.Native_backend.shutdown b)
    (fun () ->
      let o = O2_native.Native_backend.register b ~size:64 ~name:"probe" in
      let out = Array.make 1 0.0 in
      O2_native.Native_backend.spawn b ~core:0 ~name:"probe" (fun () ->
          O2_native.Native_backend.with_op b ~write:true o nop () () ();
          out.(0) <-
            minor_words_during (fun () ->
                for _ = 1 to iters do
                  O2_native.Native_backend.with_op b o nop () () ()
                done));
      O2_native.Native_backend.run b;
      check_zero_alloc "native with_op, metrics-only telemetry" out.(0))

(* The homed path's counters are padded rows (Pad_row): their
   accessors, and with_op on an object registered after the rows have
   grown twice, must stay flat int stores. *)
let test_native_padded_rows () =
  let r = O2_native.Pad_row.make 64 in
  let words =
    minor_words_during (fun () ->
        for i = 1 to iters do
          let j = i land 63 in
          O2_native.Pad_row.incr r j;
          O2_native.Pad_row.set r j (O2_native.Pad_row.get r j + 1)
        done)
  in
  check_zero_alloc "Pad_row get/set/incr" words;
  let b = O2_native.Native_backend.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> O2_native.Native_backend.shutdown b)
    (fun () ->
      for i = 0 to 38 do
        ignore
          (O2_native.Native_backend.register b ~size:64
             ~name:(Printf.sprintf "o%d" i))
      done;
      let o = O2_native.Native_backend.register b ~size:64 ~name:"probe" in
      let out = Array.make 1 0.0 in
      O2_native.Native_backend.spawn b ~core:0 ~name:"probe" (fun () ->
          O2_native.Native_backend.with_op b ~write:true o nop () () ();
          out.(0) <-
            minor_words_during (fun () ->
                for _ = 1 to iters do
                  O2_native.Native_backend.with_op b o nop () () ()
                done));
      O2_native.Native_backend.run b;
      check_zero_alloc "native with_op at home on grown rows" out.(0))

(* The programs' ops on native, each after a warm-up: a directory
   lookup (a local read: directories are never written) and a kv get,
   put and delete on buckets their first puts homed. Each op is the
   with_op bracket around a closed body and the probe kernel, so none
   allocates. The kv store is perfbench's: 64 buckets of 32 slots, keys
   0-1023, which fit. Deletes run in laps over all the keys, each
   followed by an unmeasured lap of puts that refills the store. *)
module Dir = O2_native.Backend_dir.Make (O2_native.Native_backend)
module Kv = O2_native.Backend_kv.Make (O2_native.Native_backend)

let kv_keys = 1024

let test_native_program_ops () =
  let b = O2_native.Native_backend.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> O2_native.Native_backend.shutdown b)
    (fun () ->
      let dir = Dir.create b ~name:"dir" ~dirs:4 ~entries_per_dir:48 () in
      let kv = Kv.create b ~name:"kv" ~buckets:64 ~slots_per_bucket:32 () in
      let out = Array.make 4 0.0 and deletes = ref 0 and bad = ref 0 in
      let lookups () =
        for i = 1 to iters do
          (* keys 0-51 over 48 entries: hits, and misses that scan all *)
          let key = i mod 52 in
          let want = if key < 48 then key else -1 in
          if Dir.lookup dir ~dir:(i land 3) ~key <> want then incr bad
        done
      in
      let fill () =
        for k = 0 to kv_keys - 1 do
          if not (Kv.put kv ~key:k ~value:k) then incr bad
        done
      in
      O2_native.Native_backend.spawn b ~core:0 ~name:"probe" (fun () ->
          lookups ();
          out.(0) <- minor_words_during lookups;
          fill ();
          for k = 0 to kv_keys - 1 do
            if Kv.get kv ~key:k <> k then incr bad
          done;
          out.(1) <-
            minor_words_during (fun () ->
                for i = 1 to iters do
                  if Kv.get kv ~key:(i land (kv_keys - 1)) < 0 then incr bad
                done);
          out.(2) <-
            minor_words_during (fun () ->
                for i = 1 to iters do
                  if not (Kv.put kv ~key:(i land (kv_keys - 1)) ~value:i) then
                    incr bad
                done);
          while !deletes < iters do
            out.(3) <-
              out.(3)
              +. minor_words_during (fun () ->
                     for k = 0 to kv_keys - 1 do
                       if not (Kv.delete kv ~key:k) then incr bad
                     done);
            deletes := !deletes + kv_keys;
            fill ()
          done);
      O2_native.Native_backend.run b;
      Alcotest.(check int) "every op answered as the store holds" 0 !bad;
      check_zero_alloc "native Backend_dir.lookup" out.(0);
      check_zero_alloc "native Backend_kv.get" out.(1);
      check_zero_alloc "native Backend_kv.put" out.(2);
      check_zero_alloc
        (Printf.sprintf "native Backend_kv.delete (%d deletes)" !deletes)
        out.(3))

(* The LRU's page recycling: a cyclic stream over 4x capacity evicts
   each 64-key page's lines one by one until the page empties onto the
   spare stack, and the stream's next page range takes it back. Removes
   of keys behind the stream empty pages early. After one warm-up lap
   every page has been allocated, so fills, evictions and removes must
   allocate nothing. *)
let test_lru_page_churn () =
  let cap = 512 in
  let span = 4 * cap in
  let t = Lru.create ~cap in
  let lap () =
    for i = 0 to span - 1 do
      ignore (Lru.add_evict t i);
      if i land 7 = 0 then ignore (Lru.remove t (i - 64))
    done
  in
  lap ();
  let words =
    minor_words_during (fun () ->
        for _ = 1 to iters / span do
          lap ()
        done;
        for i = 0 to iters - 1 do
          ignore (Lru.touch t (i mod span))
        done)
  in
  check_zero_alloc "Lru fill/evict/remove over churning pages" words;
  match Lru.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

(* Cluster reads: a 4 KB cluster is 64 consecutive lines read in order,
   so a cache's LRU sees each run touched, filled and evicted in order.
   Reading each cluster twice over 2x capacity, every first read fills
   and evicts the oldest cluster's lines one by one; its page empties on
   the 64th eviction and comes off the spare stack for a later cluster,
   and the second read is all hits. *)
let test_lru_cluster_runs () =
  let cap = 512 in
  let clusters = 2 * cap / 64 in
  let t = Lru.create ~cap in
  let read c =
    for l = 0 to 63 do
      let line = (c * 64) + l in
      if not (Lru.touch t line) then ignore (Lru.add_evict t line)
    done
  in
  let lap () =
    for c = 0 to clusters - 1 do
      read c;
      read c
    done
  in
  lap ();
  let words =
    minor_words_during (fun () ->
        for _ = 1 to 1 + (iters / (2 * 64 * clusters)) do
          lap ()
        done)
  in
  check_zero_alloc "Lru in-order cluster touch/fill/evict" words;
  match Lru.check_invariants t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

let suite =
  [
    Alcotest.test_case "event queue allocates nothing per event" `Quick
      test_event_queue;
    Alcotest.test_case "Machine.read L1 hit allocates nothing" `Quick
      test_machine_read_l1_hit;
    Alcotest.test_case "Machine.write L1 hit allocates nothing" `Quick
      test_machine_write_l1_hit;
    Alcotest.test_case "Machine.read runs of hits allocate nothing" `Quick
      test_machine_read_runs;
    Alcotest.test_case "FAT directory scan allocates nothing on a miss"
      `Quick test_fat_scan_miss;
    Alcotest.test_case "FAT simulated lookup allocates only its result"
      `Quick test_fat_lookup_sim;
    Alcotest.test_case "FAT populate allocates nothing per directory entry"
      `Quick test_fat_populate_per_dir;
    Alcotest.test_case "unobserved miss paths allocate nothing" `Quick
      test_machine_miss_paths_unobserved;
    Alcotest.test_case "presence nearest-holder scans allocate nothing"
      `Quick test_presence_scan_zero_alloc;
    Alcotest.test_case "observed paths allocate nothing beyond the observer"
      `Quick test_machine_paths_observed_noop;
    Alcotest.test_case "recorder-off probe path allocates nothing" `Quick
      test_probe_inactive_emits_nothing;
    Alcotest.test_case "quiet rebalancer period allocates nothing" `Quick
      test_rebalancer_quiet_step;
    Alcotest.test_case "inactive-probe rebalancer allocates nothing" `Quick
      test_rebalancer_inactive_probe_step;
    Alcotest.test_case "serial run loop minor words per event are bounded"
      `Quick test_serial_run_loop;
    Alcotest.test_case "telemetry-off steal path allocates nothing" `Quick
      test_native_steal_path_telemetry_off;
    Alcotest.test_case "telemetry-off with_op allocates nothing" `Quick
      test_native_with_op_telemetry_off;
    Alcotest.test_case "metrics-only with_op allocates nothing" `Quick
      test_native_with_op_metrics_only;
    Alcotest.test_case "first-write claim allocates nothing" `Quick
      test_native_first_write_claim;
    Alcotest.test_case "padded counter rows allocate nothing" `Quick
      test_native_padded_rows;
    Alcotest.test_case "native program ops allocate nothing" `Quick
      test_native_program_ops;
    Alcotest.test_case "LRU page recycling allocates nothing" `Quick
      test_lru_page_churn;
    Alcotest.test_case "LRU cluster runs allocate nothing" `Quick
      test_lru_cluster_runs;
    Alcotest.test_case "op programs allocate one block per distinct op"
      `Quick test_program_generation_words;
  ]
