(* The cache-hierarchy access path: latencies, movement between levels,
   victim-L3 exclusivity, coherence invalidations, capacity, and the
   presence-directory consistency invariant under random traffic. *)

open O2_simcore

let machine () = Machine.create Config.amd16

let probe_addr m =
  (Memsys.alloc (Machine.memory m) ~name:"probe" ~size:64).Memsys.base

let read m ~core addr = Machine.read m ~core ~now:0 ~addr ~len:8
let write m ~core addr = Machine.write m ~core ~now:0 ~addr ~len:8

let test_l1_hit () =
  let m = machine () in
  let addr = probe_addr m in
  ignore (read m ~core:0 addr);
  Alcotest.(check int) "second read hits L1" 3 (read m ~core:0 addr)

let test_l2_hit () =
  let m = machine () in
  let addr = probe_addr m in
  Machine.place m ~core:0 ~addr ~l1:false ~l2:true ~l3:false;
  Alcotest.(check int) "L2 hit" 14 (read m ~core:0 addr);
  Alcotest.(check int) "fills L1" 3 (read m ~core:0 addr)

let test_l3_hit_is_exclusive () =
  let m = machine () in
  let addr = probe_addr m in
  Machine.place m ~core:0 ~addr ~l1:false ~l2:false ~l3:true;
  Alcotest.(check int) "L3 hit" 75 (read m ~core:0 addr);
  (* victim cache: the line moved into the private hierarchy *)
  Alcotest.(check bool) "line left the L3" false
    (Cache.contains (Machine.l3 m ~chip:0) (addr / 64));
  Alcotest.(check bool) "line now private" true
    (Machine.line_resident m ~core:0 ~addr)

let test_l2_eviction_goes_to_l3 () =
  let m = Machine.create Config.small4 in
  let mem = Machine.memory m in
  (* small4 L1 = 1 KB (16 lines), L2 = 4 KB (64 lines): stream enough
     lines through core 0 to evict the first one from both. *)
  let first = (Memsys.alloc mem ~name:"first" ~size:64).Memsys.base in
  ignore (read m ~core:0 first);
  for _ = 1 to 80 do
    let a = (Memsys.alloc mem ~name:"filler" ~size:64).Memsys.base in
    ignore (read m ~core:0 a)
  done;
  Alcotest.(check bool) "evicted from private caches" false
    (Machine.line_resident m ~core:0 ~addr:first);
  Alcotest.(check bool) "victim landed in the chip L3" true
    (Cache.contains (Machine.l3 m ~chip:0) (first / 64));
  Alcotest.(check int) "and is an L3 hit to re-read" 75 (read m ~core:0 first)

let test_remote_fetch_costs () =
  let m = machine () in
  let addr = probe_addr m in
  Machine.place m ~core:1 ~addr ~l1:false ~l2:true ~l3:false;
  Alcotest.(check int) "same chip remote" 127 (read m ~core:0 addr);
  let m = machine () in
  let addr = probe_addr m in
  Machine.place m ~core:4 ~addr ~l1:false ~l2:true ~l3:false;
  Alcotest.(check int) "one hop remote" 187 (read m ~core:0 addr);
  let m = machine () in
  let addr = probe_addr m in
  Machine.place m ~core:15 ~addr ~l1:false ~l2:true ~l3:false;
  Alcotest.(check int) "two hop remote" 247 (read m ~core:0 addr)

let test_nearest_copy_wins () =
  let m = machine () in
  let addr = probe_addr m in
  Machine.place m ~core:15 ~addr ~l1:false ~l2:true ~l3:false;
  Machine.place m ~core:1 ~addr ~l1:false ~l2:true ~l3:false;
  Alcotest.(check int) "chooses the same-chip copy" 127 (read m ~core:0 addr)

let test_write_invalidates () =
  let m = machine () in
  let addr = probe_addr m in
  ignore (read m ~core:1 addr);
  ignore (read m ~core:5 addr);
  let cost = write m ~core:0 addr in
  Alcotest.(check bool) "cost includes invalidation" true
    (cost >= Config.amd16.Config.invalidate_cycles);
  Alcotest.(check bool) "core 1 lost its copy" false
    (Machine.line_resident m ~core:1 ~addr);
  Alcotest.(check bool) "core 5 lost its copy" false
    (Machine.line_resident m ~core:5 ~addr);
  Alcotest.(check bool) "writer has it" true
    (Machine.line_resident m ~core:0 ~addr);
  Alcotest.(check int) "writer then hits L1" 3 (read m ~core:0 addr)

let test_dram_load_and_counters () =
  let m = machine () in
  let addr = probe_addr m in
  let cost = read m ~core:0 addr in
  Alcotest.(check bool) "cold read is a DRAM load"
    true
    (cost >= Config.amd16.Config.dram_latency);
  let c = Machine.counters m 0 in
  Alcotest.(check int) "dram counter" 1 c.Counters.dram_loads;
  Alcotest.(check int) "load counter" 1 c.Counters.loads

let test_multi_line_read () =
  let m = machine () in
  let ext = Memsys.alloc (Machine.memory m) ~name:"buf" ~size:4096 in
  ignore (Machine.read m ~core:0 ~now:0 ~addr:ext.Memsys.base ~len:4096);
  let c = Machine.counters m 0 in
  Alcotest.(check int) "64 lines loaded" 64 c.Counters.loads;
  (* second scan: everything is local now *)
  let cost = Machine.read m ~core:0 ~now:100000 ~addr:ext.Memsys.base ~len:4096 in
  Alcotest.(check int) "warm scan costs 64 L1 hits" (64 * 3) cost

let test_flush () =
  let m = machine () in
  let addr = probe_addr m in
  ignore (read m ~core:0 addr);
  Machine.flush_line m ~addr;
  Alcotest.(check bool) "gone" false (Machine.line_resident m ~core:0 ~addr);
  ignore (read m ~core:0 addr);
  Machine.flush_all m;
  Alcotest.(check int) "nothing cached" 0 (Machine.distinct_cached_lines m);
  Alcotest.(check bool) "still consistent" true
    (Result.is_ok (Machine.check_presence_consistency m))

let test_zero_and_negative_len () =
  let m = machine () in
  let addr = probe_addr m in
  Alcotest.(check int) "len 0 read free" 0 (Machine.read m ~core:0 ~now:0 ~addr ~len:0);
  Alcotest.(check int) "len 0 write free" 0 (Machine.write m ~core:0 ~now:0 ~addr ~len:0)

let prop_presence_consistent =
  QCheck2.Test.make ~name:"presence directory consistent under random traffic"
    ~count:60
    QCheck2.Gen.(
      list_size (return 300)
        (triple (int_bound 3) (int_bound 127) bool))
    (fun ops ->
      let m = Machine.create Config.small4 in
      let ext = Memsys.alloc (Machine.memory m) ~name:"arena" ~size:(128 * 64) in
      List.iter
        (fun (core, line, is_write) ->
          let addr = ext.Memsys.base + (line * 64) in
          if is_write then ignore (Machine.write m ~core ~now:0 ~addr ~len:8)
          else ignore (Machine.read m ~core ~now:0 ~addr ~len:8))
        ops;
      Result.is_ok (Machine.check_presence_consistency m))

let test_residency_and_distinct () =
  let m = Machine.create Config.small4 in
  let ext = Memsys.alloc (Machine.memory m) ~name:"obj" ~size:512 in
  ignore (Machine.read m ~core:2 ~now:0 ~addr:ext.Memsys.base ~len:512);
  let where = Machine.object_residency m ext in
  Alcotest.(check bool) "object is somewhere" true (where <> []);
  Alcotest.(check bool) "core 2 L1 holds some of it" true
    (List.exists
       (fun (c, n) -> Cache.level c = Cache.L1 && Cache.owner c = 2 && n > 0)
       where);
  Alcotest.(check int) "8 distinct lines on chip" 8
    (Machine.distinct_cached_lines m)

(* The distance-class nearest holder against the per-bit hop loop it
   replaced: the holder (not the excluded core) with the fewest hops from
   the source chip, lowest id on ties, or -1. future64's 64 cores span
   two mask words. *)
let hop_loop_nearest ~holders ~exclude_core ~chip_of ~hops ~nchips ~from_chip =
  List.fold_left
    (fun best c ->
      if c = exclude_core then best
      else
        let h = hops.((from_chip * nchips) + chip_of.(c)) in
        match best with
        | Some (_, bh) when bh <= h -> best
        | _ -> Some (c, h))
    None
    (List.sort_uniq Int.compare holders)
  |> Option.fold ~none:(-1) ~some:fst

let prop_nearest_by_class name cfg =
  let ncores = Config.cores cfg and nchips = cfg.Config.chips in
  let topo = Topology.create cfg in
  let chip_of = Array.init ncores (Config.chip_of_core cfg) in
  let hops =
    Array.init (nchips * nchips) (fun i ->
        Topology.hops topo (i / nchips) (i mod nchips))
  in
  QCheck2.Test.make
    ~name:(Printf.sprintf "nearest holder by distance class = hop loop (%s)" name)
    ~count:300
    QCheck2.Gen.(
      triple
        (list_size (int_bound 8) (int_bound (ncores - 1)))
        (int_bound (ncores - 1))
        (int_bound (nchips - 1)))
    (fun (holders, exclude_core, from_chip) ->
      let p = Presence.create ~cores:ncores in
      let classes = Presence.hop_classes p ~chip_of ~hops ~nchips in
      let line = 7 in
      List.iter (fun core -> Presence.set_core p ~line ~core) holders;
      Presence.nearest_core p classes ~line ~exclude_core ~from_chip
      = hop_loop_nearest ~holders ~exclude_core ~chip_of ~hops ~nchips
          ~from_chip
      && Presence.nearest_core p classes ~line:(line + 1) ~exclude_core
           ~from_chip
         = -1)

let suite =
  [
    Alcotest.test_case "L1 hit costs 3" `Quick test_l1_hit;
    Alcotest.test_case "L2 hit costs 14 and fills L1" `Quick test_l2_hit;
    Alcotest.test_case "L3 hit is exclusive (victim cache)" `Quick test_l3_hit_is_exclusive;
    Alcotest.test_case "L2 eviction victims land in L3" `Quick test_l2_eviction_goes_to_l3;
    Alcotest.test_case "remote fetch costs by distance" `Quick test_remote_fetch_costs;
    Alcotest.test_case "nearest cached copy is used" `Quick test_nearest_copy_wins;
    Alcotest.test_case "writes invalidate remote copies" `Quick test_write_invalidates;
    Alcotest.test_case "cold loads come from DRAM" `Quick test_dram_load_and_counters;
    Alcotest.test_case "multi-line scans" `Quick test_multi_line_read;
    Alcotest.test_case "flush" `Quick test_flush;
    Alcotest.test_case "zero-length accesses are free" `Quick test_zero_and_negative_len;
    Alcotest.test_case "object residency snapshot" `Quick test_residency_and_distinct;
    QCheck_alcotest.to_alcotest prop_presence_consistent;
    QCheck_alcotest.to_alcotest (prop_nearest_by_class "small4" Config.small4);
    QCheck_alcotest.to_alcotest (prop_nearest_by_class "amd16" Config.amd16);
    QCheck_alcotest.to_alcotest
      (prop_nearest_by_class "future64" Config.future64);
  ]
