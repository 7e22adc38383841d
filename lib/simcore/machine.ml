(* Where a load was sourced, for the observatory's access stream. Bare
   ints (not a variant reused across calls) so observers can index arrays
   without a match on the hot path. *)
let src_l1 = 0
let src_l2 = 1
let src_l3 = 2
let src_remote = 3
let src_dram = 4

type observer = {
  on_access : now:int -> core:int -> line:int -> source:int -> unit;
  on_fill : cache:Cache.t -> line:int -> victim:int -> unit;
  on_remove : cache:Cache.t -> line:int -> unit;
}

type t = {
  cfg : Config.t;
  topo : Topology.t;
  l1 : Cache.t array;  (* per core *)
  l2 : Cache.t array;  (* per core *)
  l3 : Cache.t array;  (* per chip *)
  presence : Presence.t;
  pwords : int;  (* Presence.words, hoisted for the invalidation loops *)
  dram : Dram.t;
  mem : Memsys.t;
  ctr : Counters.t array;
  (* Per home bank: how many lines the access in flight streams from DRAM.
     A scratch array hoisted out of [read]/[write] (which never nest) so
     the access path does not allocate. All-zero between accesses:
     [dram_batch_cost] clears each bank as it reads it, and [dram_touched]
     skips the batch walk entirely for accesses that never reached DRAM —
     the common case pays one flag test instead of an [Array.fill]. *)
  dram_scratch : int array;
  mutable dram_touched : bool;
  (* Flat topology tables consulted on every miss: core -> chip, and the
     row-major chips x chips hop matrix. Plain int arrays instead of the
     prebuilt closures this module used to carry — an indexed load instead
     of a call. *)
  chip_tab : int array;
  hop_mat : int array;
  classes : Presence.classes;  (* core masks by hop distance, per chip *)
  nchips : int;
  line_shift : int;  (* log2 line_bytes; Config.validate enforces pow2 *)
  (* Cache-observatory subscribers. Empty list = not observed: every
     notification site is a single [match] on it, so the unobserved access
     path allocates nothing and pays one branch (pinned by suite_hotpath). *)
  mutable observers : observer list;
}

let rec log2 v k = if v <= 1 then k else log2 (v lsr 1) (k + 1)

let create cfg =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Machine.create: " ^ msg));
  if cfg.Config.chips > 62 then
    invalid_arg "Machine.create: more than 62 chips overflows the per-line \
                 int chip mask";
  let topo = Topology.create cfg in
  let ncores = Config.cores cfg in
  let nchips = cfg.Config.chips in
  let line = cfg.Config.line_bytes in
  let presence = Presence.create ~cores:ncores in
  let chip_tab = Array.init ncores (Config.chip_of_core cfg) in
  let hop_mat = Topology.hop_table topo in
  {
    cfg;
    topo;
    l1 =
      Array.init ncores (fun c ->
          Cache.create L1 ~owner:c ~cap_bytes:cfg.Config.l1_bytes
            ~line_bytes:line);
    l2 =
      Array.init ncores (fun c ->
          Cache.create L2 ~owner:c ~cap_bytes:cfg.Config.l2_bytes
            ~line_bytes:line);
    l3 =
      Array.init nchips (fun p ->
          Cache.create L3 ~owner:p ~cap_bytes:cfg.Config.l3_bytes
            ~line_bytes:line);
    presence;
    pwords = Presence.words presence;
    dram = Dram.create cfg topo;
    mem = Memsys.create ~line_bytes:line ();
    ctr = Counters.create_array ncores;
    dram_scratch = Array.make nchips 0;
    dram_touched = false;
    chip_tab;
    hop_mat;
    classes =
      Presence.hop_classes presence ~chip_of:chip_tab ~hops:hop_mat ~nchips;
    nchips;
    line_shift = log2 line 0;
    observers = [];
  }

let cfg t = t.cfg
let topology t = t.topo
let memory t = t.mem
let counters t core = t.ctr.(core)
let all_counters t = t.ctr
let dram t = t.dram
let l1 t ~core = t.l1.(core)
let l2 t ~core = t.l2.(core)
let l3 t ~chip = t.l3.(chip)

let all_caches t =
  Array.to_list t.l1 @ Array.to_list t.l2 @ Array.to_list t.l3

let presence t = t.presence

let line_of t addr = addr lsr t.line_shift

(* Fan cache fill/remove notifications out to the machine-level observer
   list. Installed on every cache at the first [observe]; before that the
   caches carry no watcher and their notification sites stay free. The
   fan-outs are recursive list walks rather than [List.iter f] — the
   iterated closure would be a minor allocation per notification, and the
   observed access path is pinned zero-alloc too (the observers' own
   callbacks allocate or not on their own account). *)
let rec fill_list obs cache ~line ~victim =
  match obs with
  | [] -> ()
  | o :: rest ->
      o.on_fill ~cache ~line ~victim;
      fill_list rest cache ~line ~victim

let notify_fill t cache ~line ~victim = fill_list t.observers cache ~line ~victim

let rec remove_list obs cache ~line =
  match obs with
  | [] -> ()
  | o :: rest ->
      o.on_remove ~cache ~line;
      remove_list rest cache ~line

let notify_remove t cache ~line = remove_list t.observers cache ~line

let rec access_list obs ~now ~core ~line ~source =
  match obs with
  | [] -> ()
  | o :: rest ->
      o.on_access ~now ~core ~line ~source;
      access_list rest ~now ~core ~line ~source

let notify_access t ~now ~core ~line ~source =
  access_list t.observers ~now ~core ~line ~source

let observe t observer =
  if t.observers = [] then begin
    let w =
      Some
        {
          Cache.on_fill = (fun c ~line ~victim -> notify_fill t c ~line ~victim);
          Cache.on_remove = (fun c ~line -> notify_remove t c ~line);
        }
    in
    Array.iter (fun c -> Cache.set_watcher c w) t.l1;
    Array.iter (fun c -> Cache.set_watcher c w) t.l2;
    Array.iter (fun c -> Cache.set_watcher c w) t.l3
  end;
  t.observers <- observer :: t.observers

let observed t = t.observers <> []

(* A core "holds" a line when it is in its L1 or L2; clear the presence bit
   only when it has left both. *)
let core_still_holds t core line =
  Cache.contains t.l1.(core) line || Cache.contains t.l2.(core) line

(* The L3 is a victim cache, as on the paper's AMD system: lines enter it
   only when evicted from a private L2, and an L3 hit moves the line back
   into the reader's private hierarchy. Private L2s and the L3 therefore
   hold (mostly) disjoint lines, which is what makes the chip's aggregate
   capacity the paper's 16 MB (16 x 512 KB L2 + 4 x 2 MB L3). *)

let fill_l3 t chip line =
  let victim = Cache.fill_evict t.l3.(chip) line in
  if victim >= 0 then Presence.clear_chip t.presence ~line:victim ~chip;
  Presence.set_chip t.presence ~line ~chip

(* What a private fill's victim leaves behind: its presence bit goes
   once it is in neither private level, and an L2 victim drops into the
   chip's L3. *)
let l1_evicted t core victim =
  if victim >= 0 && not (Cache.contains t.l2.(core) victim) then
    Presence.clear_core t.presence ~line:victim ~core

let l2_evicted t core victim =
  if victim >= 0 && not (Cache.contains t.l1.(core) victim) then begin
    Presence.clear_core t.presence ~line:victim ~core;
    (* victim-cache insertion into the chip's L3 *)
    fill_l3 t t.chip_tab.(core) victim
  end

(* The access path fills only caches its probe just missed, so its fills
   skip the re-probe ([Cache.fill_absent]). [fill_private] follows a miss
   in both private levels. *)
let fill_private t core line =
  l1_evicted t core (Cache.fill_absent t.l1.(core) line);
  l2_evicted t core (Cache.fill_absent t.l2.(core) line);
  Presence.set_core t.presence ~line ~core

(* One load that missed both private levels: the cost in cache cycles of
   sourcing [line] from the local L3, the nearest remote holder or DRAM.
   Lines that fall through to DRAM cost 0 here; they are tallied into
   [t.dram_scratch] per home bank so [read]/[write] can batch them
   (fetches to different banks overlap). The whole path — probes, fills,
   presence updates, nearest-holder location — is allocation-free. *)
let read_below_l2 t ~core ~chip ~now line =
  let c = t.ctr.(core) in
  c.Counters.loads <- c.Counters.loads + 1;
  if Cache.drop t.l3.(chip) line then begin
    c.Counters.l3_hits <- c.Counters.l3_hits + 1;
    (* exclusive: the line moves from the L3 into the private hierarchy *)
    Presence.clear_chip t.presence ~line ~chip;
    fill_private t core line;
    notify_access t ~now ~core ~line ~source:src_l3;
    t.cfg.Config.l3_latency
  end
  else begin
    (* Missed the local hierarchy: nearest remote holder, else home DRAM. *)
    let holder =
      Presence.nearest_core t.presence t.classes ~line ~exclude_core:core
        ~from_chip:chip
    in
    let holder_chip =
      if holder >= 0 then t.chip_tab.(holder)
      else
        Presence.nearest_chip_holder t.presence ~line ~exclude_chip:chip
          ~from_chip:chip ~hops:t.hop_mat ~nchips:t.nchips
    in
    if holder_chip >= 0 then begin
      c.Counters.remote_hits <- c.Counters.remote_hits + 1;
      fill_private t core line;
      notify_access t ~now ~core ~line ~source:src_remote;
      Topology.remote_cache_latency t.topo ~from_chip:chip
        ~to_chip:holder_chip
    end
    else begin
      let home =
        Topology.home_chip t.topo ~addr:(line * t.cfg.Config.line_bytes)
      in
      c.Counters.dram_loads <- c.Counters.dram_loads + 1;
      fill_private t core line;
      t.dram_scratch.(home) <- t.dram_scratch.(home) + 1;
      t.dram_touched <- true;
      notify_access t ~now ~core ~line ~source:src_dram;
      0
    end
  end

(* Observers see a run of hits line by line, in line order. *)
let notify_run t ~now ~core first last source =
  match t.observers with
  | [] -> ()
  | obs ->
      for line = first to last do
        access_list obs ~now ~core ~line ~source
      done

(* The end of an L2-hit run [first .. last]: one relink of the run in the
   L2 and one bump of the counters. *)
let end_l2_run t ~core first last acc =
  let k = last - first + 1 in
  if k = 0 then acc
  else begin
    ignore (Cache.probe_run t.l2.(core) first last);
    let c = t.ctr.(core) in
    c.Counters.loads <- c.Counters.loads + k;
    c.Counters.l2_hits <- c.Counters.l2_hits + k;
    acc + (k * t.cfg.Config.l2_latency)
  end

(* A load of lines [line .. last] walks runs: a run of L1 hits is one
   [Cache.probe_run]; a run of L2 hits fills the L1 line by line and
   relinks the L2 once at its end; a line that misses both goes below.
   Every line, counter and cost comes out as read one by one. The loops
   are recursive rather than [ref]-based: without flambda a local ref is
   a minor allocation, and [read]/[write] are the hottest functions in
   the simulator. *)
let rec read_lines t ~core ~chip ~now line last acc =
  if line > last then acc
  else begin
    let n = Cache.probe_run t.l1.(core) line last in
    if n = 0 then l2_run t ~core ~chip ~now line line last acc
    else begin
      let c = t.ctr.(core) in
      c.Counters.loads <- c.Counters.loads + n;
      c.Counters.l1_hits <- c.Counters.l1_hits + n;
      let next = line + n in
      notify_run t ~now ~core line (next - 1) src_l1;
      let acc = acc + (n * t.cfg.Config.l1_latency) in
      (* the run stopped at [last] or at a line absent from L1 *)
      if next > last then acc else l2_run t ~core ~chip ~now next next last acc
    end
  end

(* Lines [first .. line - 1] hit in L2 and were filled into L1, and
   [line] is absent from L1. The L2 relink of the run waits for its end,
   which is exact: an L1 fill reads only L2 membership, never its order. *)
and l2_run t ~core ~chip ~now first line last acc =
  if line <= last && Cache.contains t.l2.(core) line then begin
    l1_evicted t core (Cache.fill_absent t.l1.(core) line);
    notify_access t ~now ~core ~line ~source:src_l2;
    (* an L1 hit on the next line (one the fill did not evict) ends the run *)
    if line < last && Cache.contains t.l1.(core) (line + 1) then
      read_lines t ~core ~chip ~now (line + 1) last
        (end_l2_run t ~core first line acc)
    else l2_run t ~core ~chip ~now first (line + 1) last acc
  end
  else begin
    let acc = end_l2_run t ~core first (line - 1) acc in
    if line > last then acc
    else
      read_lines t ~core ~chip ~now (line + 1) last
        (acc + read_below_l2 t ~core ~chip ~now line)
  end

(* Cost of the batched DRAM traffic tallied in [t.dram_scratch]: fetches
   to different home banks overlap, so the result is the max over banks.
   Clears each bank tally as it reads it, restoring the all-zero scratch
   invariant without an [Array.fill] on every access. *)
let rec dram_batch_loop t ~now ~chip home acc =
  if home >= t.nchips then acc
  else begin
    let n = t.dram_scratch.(home) in
    let acc =
      if n = 0 then acc
      else begin
        t.dram_scratch.(home) <- 0;
        let c = Dram.fetch t.dram ~now ~from_chip:chip ~home_chip:home ~lines:n in
        if c > acc then c else acc
      end
    in
    dram_batch_loop t ~now ~chip (home + 1) acc
  end

let dram_batch_cost t ~now ~chip =
  if t.dram_touched then begin
    t.dram_touched <- false;
    dram_batch_loop t ~now ~chip 0 0
  end
  else 0

let read t ~core ~now ~addr ~len =
  if len <= 0 then 0
  else begin
    let chip = t.chip_tab.(core) in
    let first = line_of t addr in
    let last = line_of t (addr + len - 1) in
    let cache_cycles = read_lines t ~core ~chip ~now first last 0 in
    cache_cycles + dram_batch_cost t ~now:(now + cache_cycles) ~chip
  end

(* Invalidation of every other holder, walking the presence mask words and
   visiting only the set bits (ascending, as the old all-core loop did). *)
let rec invalidate_core_bits t line base m =
  if m <> 0 then begin
    let bit = m land -m in
    let h = base + Presence.bit_index bit 0 in
    ignore (Cache.drop t.l1.(h) line);
    ignore (Cache.drop t.l2.(h) line);
    Presence.clear_core t.presence ~line ~core:h;
    invalidate_core_bits t line base (m land lnot bit)
  end

let rec invalidate_chip_bits t line m =
  if m <> 0 then begin
    let bit = m land -m in
    let p = Presence.bit_index bit 0 in
    ignore (Cache.drop t.l3.(p) line);
    Presence.clear_chip t.presence ~line ~chip:p;
    invalidate_chip_bits t line (m land lnot bit)
  end

(* Drop every other core's and chip's copy immediately. Returns whether
   any other holder existed. *)
let rec inval_words t line ~xw ~xbit w any =
  if w >= t.pwords then any
  else begin
    let m = Presence.core_word t.presence ~line ~w in
    let m = if w = xw then m land lnot xbit else m in
    if m = 0 then inval_words t line ~xw ~xbit (w + 1) any
    else begin
      invalidate_core_bits t line (w * 32) m;
      inval_words t line ~xw ~xbit (w + 1) true
    end
  end

let invalidate_others t ~core ~chip line =
  let xw = core lsr 5 and xbit = 1 lsl (core land 31) in
  let chip_mask =
    Presence.chip_holders t.presence ~line land lnot (1 lsl chip)
  in
  let any = inval_words t line ~xw ~xbit 0 false in
  invalidate_chip_bits t line chip_mask;
  any || chip_mask <> 0

let rec write_lines t ~core ~chip ~now line last acc =
  if line > last then acc
  else begin
    let c = t.ctr.(core) in
    c.Counters.stores <- c.Counters.stores + 1;
    (* a one-line run: this line's invalidations precede the next read *)
    let acc = read_lines t ~core ~chip ~now line line acc in
    let acc =
      if invalidate_others t ~core ~chip line then begin
        c.Counters.invalidations_sent <- c.Counters.invalidations_sent + 1;
        acc + t.cfg.Config.invalidate_cycles
      end
      else acc
    in
    write_lines t ~core ~chip ~now (line + 1) last acc
  end

let write t ~core ~now ~addr ~len =
  if len <= 0 then 0
  else begin
    let chip = t.chip_tab.(core) in
    let first = line_of t addr in
    let last = line_of t (addr + len - 1) in
    let cycles = write_lines t ~core ~chip ~now first last 0 in
    cycles + dram_batch_cost t ~now:(now + cycles) ~chip
  end

let line_resident t ~core ~addr =
  let line = line_of t addr in
  core_still_holds t core line

let distinct_cached_lines t = Presence.tracked_lines t.presence

let check_presence_consistency t =
  let ncores = Config.cores t.cfg in
  let err = ref None in
  let set_err fmt = Format.kasprintf (fun s -> if !err = None then err := Some s) fmt in
  (* every cached line must have its presence bit set *)
  List.iter
    (fun cache ->
      Cache.iter_lines
        (fun line ->
          match Cache.level cache with
          | Cache.L1 | Cache.L2 ->
              let o = Cache.owner cache in
              if
                Presence.core_word t.presence ~line ~w:(o lsr 5)
                land (1 lsl (o land 31))
                = 0
              then set_err "%s holds line %d but presence bit clear"
                  (Cache.name cache) line
          | Cache.L3 ->
              if
                Presence.chip_holders t.presence ~line
                land (1 lsl Cache.owner cache)
                = 0
              then set_err "%s holds line %d but presence bit clear"
                  (Cache.name cache) line)
        cache)
    (all_caches t);
  (* every presence bit must correspond to a cached line *)
  Presence.iter_lines
    (fun line ->
      for c = 0 to ncores - 1 do
        if
          Presence.core_word t.presence ~line ~w:(c lsr 5)
          land (1 lsl (c land 31))
          <> 0
          && not (core_still_holds t c line)
        then
          set_err "presence says core %d holds line %d but caches do not" c
            line
      done;
      let chips = Presence.chip_holders t.presence ~line in
      for p = 0 to t.cfg.Config.chips - 1 do
        if chips land (1 lsl p) <> 0 && not (Cache.contains t.l3.(p) line)
        then set_err "presence says chip %d holds line %d but L3 does not" p line
      done)
    t.presence;
  match !err with None -> Ok () | Some e -> Error e

let place t ~core ~addr ~l1 ~l2 ~l3 =
  let line = line_of t addr in
  let chip = t.chip_tab.(core) in
  if l1 then l1_evicted t core (Cache.fill_evict t.l1.(core) line);
  if l2 then l2_evicted t core (Cache.fill_evict t.l2.(core) line);
  if l1 || l2 then Presence.set_core t.presence ~line ~core;
  if l3 then fill_l3 t chip line

let seconds_of_cycles t cycles =
  float_of_int cycles /. (t.cfg.Config.ghz *. 1e9)
