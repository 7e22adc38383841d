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

let test_zero_and_negative_len () =
  let m = machine () in
  let addr = probe_addr m in
  Alcotest.(check int) "len 0 read free" 0 (Machine.read m ~core:0 ~now:0 ~addr ~len:0);
  Alcotest.(check int) "len 0 write free" 0 (Machine.write m ~core:0 ~now:0 ~addr ~len:0)

(* The arena is 1024 lines (64 KB), four times small4's 16 KB L3, and
   each case makes 2000 accesses, so every case fills the L3 past its
   capacity with L2 victims and evicts from it: a victim whose presence
   bit survived its eviction shows up here. No shrinking: each candidate
   replays the whole stream, so shrinking a failure ran for over ten
   minutes; the failure names the inconsistent line instead. *)
let arena_lines = 1024

let prop_presence_consistent =
  QCheck2.Test.make ~name:"presence directory consistent under random traffic"
    ~count:60
    QCheck2.Gen.(
      no_shrink
        (list_size (return 2000)
           (triple (int_bound 3) (int_bound (arena_lines - 1)) bool)))
    (fun ops ->
      let m = Machine.create Config.small4 in
      let ext =
        Memsys.alloc (Machine.memory m) ~name:"arena" ~size:(arena_lines * 64)
      in
      List.iter
        (fun (core, line, is_write) ->
          let addr = ext.Memsys.base + (line * 64) in
          if is_write then ignore (Machine.write m ~core ~now:0 ~addr ~len:8)
          else ignore (Machine.read m ~core ~now:0 ~addr ~len:8))
        ops;
      match Machine.check_presence_consistency m with
      | Ok () -> true
      | Error e -> QCheck2.Test.fail_report e)

let test_residency_and_distinct () =
  let m = Machine.create Config.small4 in
  let ext = Memsys.alloc (Machine.memory m) ~name:"obj" ~size:512 in
  ignore (Machine.read m ~core:2 ~now:0 ~addr:ext.Memsys.base ~len:512);
  Alcotest.(check bool) "core 2 holds the object's first line" true
    (Machine.line_resident m ~core:2 ~addr:ext.Memsys.base);
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

(* The de Bruijn table covers every bit an OCaml int has. *)
let test_bit_index () =
  for k = 0 to Sys.int_size - 1 do
    Alcotest.(check int)
      (Printf.sprintf "bit %d" k) (k + 5)
      (Presence.bit_index (1 lsl k) 5)
  done

(* ---------- runs = line by line ----------

   [Machine.read] walks runs of hits; the reference below reads one line
   at a time through the public cache and presence operations: probe
   L1, probe L2, take the line from the L3, else the nearest remote
   holder, else DRAM, with the
   DRAM lines of one access batched per home bank. A write is that read
   plus the invalidation of every other holder, line by line. Driven on a
   second machine, it must leave every cost, counter, LRU order and
   presence bit equal to the real path's. *)
module Line_ref = struct
  type t = {
    m : Machine.t;
    cfg : Config.t;
    chip_of : int array;
    hops : int array;
    classes : Presence.classes;
    scratch : int array;  (* DRAM lines per home bank, this access *)
    on_access : core:int -> line:int -> source:int -> unit;
  }

  let create m ~on_access =
    let cfg = Machine.cfg m in
    let ncores = Config.cores cfg and nchips = cfg.Config.chips in
    let topo = Machine.topology m in
    let chip_of = Array.init ncores (Config.chip_of_core cfg) in
    let hops =
      Array.init (nchips * nchips) (fun i ->
          Topology.hops topo (i / nchips) (i mod nchips))
    in
    let classes =
      Presence.hop_classes (Machine.presence m) ~chip_of ~hops ~nchips
    in
    { m; cfg; chip_of; hops; classes; scratch = Array.make nchips 0; on_access }

  let fill_l3 r chip line =
    let victim = Cache.fill_evict (Machine.l3 r.m ~chip) line in
    let p = Machine.presence r.m in
    if victim >= 0 then Presence.clear_chip p ~line:victim ~chip;
    Presence.set_chip p ~line ~chip

  let l1_evicted r core victim =
    if victim >= 0 && not (Cache.contains (Machine.l2 r.m ~core) victim) then
      Presence.clear_core (Machine.presence r.m) ~line:victim ~core

  let l2_evicted r core victim =
    if victim >= 0 && not (Cache.contains (Machine.l1 r.m ~core) victim) then begin
      Presence.clear_core (Machine.presence r.m) ~line:victim ~core;
      fill_l3 r r.chip_of.(core) victim
    end

  let fill_private r core line =
    l1_evicted r core (Cache.fill_evict (Machine.l1 r.m ~core) line);
    l2_evicted r core (Cache.fill_evict (Machine.l2 r.m ~core) line);
    Presence.set_core (Machine.presence r.m) ~line ~core

  let nearest_chip r ~line ~chip =
    let mask = Presence.chip_holders (Machine.presence r.m) ~line in
    let nchips = r.cfg.Config.chips in
    let best = ref (-1) and best_h = ref max_int in
    for q = 0 to nchips - 1 do
      let h = r.hops.((chip * nchips) + q) in
      if q <> chip && mask land (1 lsl q) <> 0 && h < !best_h then begin
        best := q;
        best_h := h
      end
    done;
    !best

  let read_line r ~core line =
    let c = Machine.counters r.m core and cfg = r.cfg in
    let chip = r.chip_of.(core) and p = Machine.presence r.m in
    c.Counters.loads <- c.Counters.loads + 1;
    let source, cost =
      if Cache.probe (Machine.l1 r.m ~core) line then begin
        c.Counters.l1_hits <- c.Counters.l1_hits + 1;
        (Machine.src_l1, cfg.Config.l1_latency)
      end
      else if Cache.probe (Machine.l2 r.m ~core) line then begin
        c.Counters.l2_hits <- c.Counters.l2_hits + 1;
        l1_evicted r core (Cache.fill_evict (Machine.l1 r.m ~core) line);
        (Machine.src_l2, cfg.Config.l2_latency)
      end
      else if Cache.drop (Machine.l3 r.m ~chip) line then begin
        c.Counters.l3_hits <- c.Counters.l3_hits + 1;
        Presence.clear_chip p ~line ~chip;
        fill_private r core line;
        (Machine.src_l3, cfg.Config.l3_latency)
      end
      else begin
        let holder =
          Presence.nearest_core p r.classes ~line ~exclude_core:core
            ~from_chip:chip
        in
        let holder_chip =
          if holder >= 0 then r.chip_of.(holder) else nearest_chip r ~line ~chip
        in
        fill_private r core line;
        if holder_chip >= 0 then begin
          c.Counters.remote_hits <- c.Counters.remote_hits + 1;
          ( Machine.src_remote,
            Topology.remote_cache_latency (Machine.topology r.m)
              ~from_chip:chip ~to_chip:holder_chip )
        end
        else begin
          c.Counters.dram_loads <- c.Counters.dram_loads + 1;
          let home =
            Topology.home_chip (Machine.topology r.m)
              ~addr:(line * cfg.Config.line_bytes)
          in
          r.scratch.(home) <- r.scratch.(home) + 1;
          (Machine.src_dram, 0)
        end
      end
    in
    r.on_access ~core ~line ~source;
    cost

  (* every other core's copy, ascending, then every other chip's *)
  let invalidate_others r ~core line =
    let p = Machine.presence r.m and chip = r.chip_of.(core) in
    let any = ref false in
    for h = 0 to Config.cores r.cfg - 1 do
      if
        h <> core
        && Presence.core_word p ~line ~w:(h lsr 5) land (1 lsl (h land 31)) <> 0
      then begin
        any := true;
        ignore (Cache.drop (Machine.l1 r.m ~core:h) line);
        ignore (Cache.drop (Machine.l2 r.m ~core:h) line);
        Presence.clear_core p ~line ~core:h
      end
    done;
    let chips = Presence.chip_holders p ~line in
    for q = 0 to r.cfg.Config.chips - 1 do
      if q <> chip && chips land (1 lsl q) <> 0 then begin
        any := true;
        ignore (Cache.drop (Machine.l3 r.m ~chip:q) line);
        Presence.clear_chip p ~line ~chip:q
      end
    done;
    !any

  let access r ~core ~now ~addr ~len ~write =
    if len <= 0 then 0
    else begin
      let rec log2 v k = if v <= 1 then k else log2 (v lsr 1) (k + 1) in
      let shift = log2 r.cfg.Config.line_bytes 0 in
      let c = Machine.counters r.m core in
      let cycles = ref 0 in
      for line = addr lsr shift to (addr + len - 1) lsr shift do
        if write then c.Counters.stores <- c.Counters.stores + 1;
        cycles := !cycles + read_line r ~core line;
        if write && invalidate_others r ~core line then begin
          c.Counters.invalidations_sent <- c.Counters.invalidations_sent + 1;
          cycles := !cycles + r.cfg.Config.invalidate_cycles
        end
      done;
      let dram = ref 0 in
      Array.iteri
        (fun home n ->
          if n > 0 then begin
            r.scratch.(home) <- 0;
            dram :=
              Int.max !dram
                (Dram.fetch (Machine.dram r.m) ~now:(now + !cycles)
                   ~from_chip:r.chip_of.(core) ~home_chip:home ~lines:n)
          end)
        r.scratch;
      !cycles + !dram
    end
end

type event =
  | Access of int * int * int * int  (* now, core, line, source *)
  | Fill of string * int * int  (* cache, line, victim *)
  | Remove of string * int

(* Everything the two paths must agree on: per-core counters, each
   cache's LRU order, the presence masks of every tracked line and each
   DRAM controller's queue. *)
let machine_state m =
  let cfg = Machine.cfg m and p = Machine.presence m in
  let counters = Array.to_list (Array.map Counters.copy (Machine.all_counters m)) in
  let lru =
    List.map
      (fun c ->
        let order = ref [] in
        Cache.iter_lines (fun l -> order := l :: !order) c;
        (Cache.name c, !order))
      (Machine.all_caches m)
  in
  let presence = ref [] in
  Presence.iter_lines
    (fun line ->
      presence :=
        ( line,
          Presence.chip_holders p ~line,
          List.init (Presence.words p) (fun w -> Presence.core_word p ~line ~w) )
        :: !presence)
    p;
  let dram =
    List.init cfg.Config.chips (fun chip ->
        Dram.controller_free_at (Machine.dram m) ~chip)
  in
  (counters, lru, !presence, dram)

(* An access: core, write or read, a line in the hot window (twice the
   L1) or the wide one (twice the L2), a byte offset in the line and a
   length of up to [max_lines] lines. Hot windows repeat, so runs of L1
   and L2 hits form and break; the wide window evicts. *)
let access_gen cfg =
  let l1_lines = cfg.Config.l1_bytes / cfg.Config.line_bytes in
  let l2_lines = cfg.Config.l2_bytes / cfg.Config.line_bytes in
  let max_lines = Int.min 192 (l1_lines / 2) in
  QCheck2.Gen.(
    map
      (fun (core, write, (hot, line), (off, lines), gap) ->
        (core, write, (if hot then line mod (2 * l1_lines) else line), off, lines, gap))
      (tup5
         (int_bound (Config.cores cfg - 1))
         (frequency [ (5, return false); (1, return true) ])
         (pair (frequency [ (3, return true); (1, return false) ]) (int_bound ((2 * l2_lines) - 1)))
         (pair (int_bound (cfg.Config.line_bytes - 1)) (int_range 1 max_lines))
         (int_bound 400)))

let prop_runs_match_lines ?(observed = false) ~count name cfg =
  QCheck2.Test.make ~count
    ~name:
      (Printf.sprintf "read by runs = read line by line (%s%s)" name
         (if observed then ", observed" else ""))
    (* no shrinking: each candidate replays a whole stream on two machines *)
    QCheck2.Gen.(no_shrink (list_size (int_range 50 300) (access_gen cfg)))
    (fun accesses ->
      let runs = Machine.create cfg and lines = Machine.create cfg in
      let base m =
        (Memsys.alloc (Machine.memory m) ~name:"window"
           ~size:(2 * cfg.Config.l2_bytes))
          .Memsys.base
      in
      let base_runs = base runs and base_lines = base lines in
      let seen_runs = ref [] and seen_lines = ref [] in
      let now = ref 0 in
      let observer seen =
        {
          Machine.on_access =
            (fun ~now ~core ~line ~source ->
              seen := Access (now, core, line, source) :: !seen);
          on_fill =
            (fun ~cache ~line ~victim ->
              seen := Fill (Cache.name cache, line, victim) :: !seen);
          on_remove =
            (fun ~cache ~line -> seen := Remove (Cache.name cache, line) :: !seen);
        }
      in
      if observed then begin
        Machine.observe runs (observer seen_runs);
        Machine.observe lines (observer seen_lines)
      end;
      let reference =
        Line_ref.create lines ~on_access:(fun ~core ~line ~source ->
            if observed then
              seen_lines := Access (!now, core, line, source) :: !seen_lines)
      in
      let costs_agree =
        List.for_all
          (fun (core, write, line, off, nlines, gap) ->
            now := !now + gap;
            let addr = (line * cfg.Config.line_bytes) + off in
            let len = (nlines * cfg.Config.line_bytes) - off in
            let got =
              (if write then Machine.write else Machine.read)
                runs ~core ~now:!now ~addr:(base_runs + addr) ~len
            in
            got
            = Line_ref.access reference ~core ~now:!now
                ~addr:(base_lines + addr) ~len ~write)
          accesses
      in
      costs_agree
      && machine_state runs = machine_state lines
      && !seen_runs = !seen_lines
      && Result.is_ok (Machine.check_presence_consistency runs))

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
    Alcotest.test_case "zero-length accesses are free" `Quick test_zero_and_negative_len;
    Alcotest.test_case "object residency snapshot" `Quick test_residency_and_distinct;
    QCheck_alcotest.to_alcotest prop_presence_consistent;
    Alcotest.test_case "bit_index of every bit" `Quick test_bit_index;
    QCheck_alcotest.to_alcotest (prop_nearest_by_class "small4" Config.small4);
    QCheck_alcotest.to_alcotest (prop_nearest_by_class "amd16" Config.amd16);
    QCheck_alcotest.to_alcotest
      (prop_nearest_by_class "future64" Config.future64);
    QCheck_alcotest.to_alcotest
      (prop_runs_match_lines ~count:200 "small4" Config.small4);
    QCheck_alcotest.to_alcotest
      (prop_runs_match_lines ~count:40 "amd16" Config.amd16);
    QCheck_alcotest.to_alcotest
      (prop_runs_match_lines ~count:15 "future64" Config.future64);
    QCheck_alcotest.to_alcotest
      (prop_runs_match_lines ~observed:true ~count:40 "amd16" Config.amd16);
  ]
