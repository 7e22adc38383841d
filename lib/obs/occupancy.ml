open O2_simcore

type sample = { at : int; lines : int array; objs : int array }

type t = {
  machine : Machine.t;
  caches : Cache.t array;
  labels : string array;
  mem : Memsys.t;
  line_bytes : int;
  interval : int;
  occ : int array array;  (* cache index -> object id -> resident lines *)
  mutable occ_width : int;  (* allocated object-id capacity of each row *)
  lines_ : int array;  (* resident lines per cache, attributed or not *)
  objs_ : int array;  (* objects with >= 1 resident line, per cache *)
  fills_ : int array;
  evictions_ : int array;  (* capacity evictions (on_fill victims) *)
  removals_ : int array;  (* invalidations, drops, clears *)
  mutable next_due : int;
  timeline : sample Ring.t;
}

let cache_count t = Array.length t.caches
let label t i = t.labels.(i)
let samples t = Ring.to_list t.timeline
let samples_dropped t = Ring.dropped t.timeline

(* Index of a cache in the machine's (fixed) cache list. O(caches) by
   physical equality — runs only while an observer is attached, never on
   the unobserved path. *)
let index_of t cache =
  let n = Array.length t.caches in
  let rec go i =
    if i >= n then -1 else if t.caches.(i) == cache then i else go (i + 1)
  in
  go 0

let grow_rows t want =
  if want > t.occ_width then begin
    let w = max 64 (max want (2 * t.occ_width)) in
    Array.iteri
      (fun ci row ->
        let grown = Array.make w 0 in
        Array.blit row 0 grown 0 t.occ_width;
        t.occ.(ci) <- grown)
      t.occ;
    t.occ_width <- w
  end

let note_fill t ci line =
  t.lines_.(ci) <- t.lines_.(ci) + 1;
  t.fills_.(ci) <- t.fills_.(ci) + 1;
  let obj = Memsys.object_id_at t.mem ~addr:(line * t.line_bytes) in
  if obj >= 0 then begin
    grow_rows t (obj + 1);
    let row = t.occ.(ci) in
    row.(obj) <- row.(obj) + 1;
    if row.(obj) = 1 then t.objs_.(ci) <- t.objs_.(ci) + 1
  end

let note_gone t ci line ~eviction =
  t.lines_.(ci) <- t.lines_.(ci) - 1;
  if eviction then t.evictions_.(ci) <- t.evictions_.(ci) + 1
  else t.removals_.(ci) <- t.removals_.(ci) + 1;
  let obj = Memsys.object_id_at t.mem ~addr:(line * t.line_bytes) in
  if obj >= 0 && obj < t.occ_width then begin
    let row = t.occ.(ci) in
    row.(obj) <- row.(obj) - 1;
    if row.(obj) = 0 then t.objs_.(ci) <- t.objs_.(ci) - 1
  end

let maybe_sample t now =
  if now >= t.next_due then begin
    t.next_due <- now + t.interval;
    Ring.push t.timeline
      { at = now; lines = Array.copy t.lines_; objs = Array.copy t.objs_ }
  end

let attach ?(interval = 100_000) ?(timeline_capacity = 4096) machine =
  if interval <= 0 then invalid_arg "Occupancy.attach: interval must be > 0";
  let caches = Array.of_list (Machine.all_caches machine) in
  let n = Array.length caches in
  let t =
    {
      machine;
      caches;
      labels = Array.map Cache.name caches;
      mem = Machine.memory machine;
      line_bytes = (Machine.cfg machine).Config.line_bytes;
      interval;
      occ = Array.make n [||];
      occ_width = 0;
      lines_ = Array.make n 0;
      objs_ = Array.make n 0;
      fills_ = Array.make n 0;
      evictions_ = Array.make n 0;
      removals_ = Array.make n 0;
      next_due = 0;
      timeline = Ring.create ~capacity:timeline_capacity;
    }
  in
  (* Seed with whatever is already resident, so the tracked counts agree
     with the caches from the first event (attach may happen mid-run). *)
  Array.iteri
    (fun ci c -> Cache.iter_lines (fun line -> note_fill t ci line) c)
    caches;
  Array.fill t.fills_ 0 n 0;
  Machine.observe machine
    {
      Machine.on_access = (fun ~now ~core:_ ~line:_ ~source:_ -> maybe_sample t now);
      Machine.on_fill =
        (fun ~cache ~line ~victim ->
          let ci = index_of t cache in
          if ci >= 0 then begin
            if victim >= 0 then note_gone t ci victim ~eviction:true;
            note_fill t ci line
          end);
      Machine.on_remove =
        (fun ~cache ~line ->
          let ci = index_of t cache in
          if ci >= 0 then note_gone t ci line ~eviction:false);
    };
  t

let distinct_lines t = Machine.distinct_cached_lines t.machine
let replicated t = Presence.replicated_lines (Machine.presence t.machine)

let check t =
  let err = ref None in
  let fail fmt =
    Printf.ksprintf (fun s -> if !err = None then err := Some s) fmt
  in
  Array.iteri
    (fun ci c ->
      let actual = Cache.resident_lines c in
      if t.lines_.(ci) <> actual then
        fail "%s: observatory tracks %d lines, cache holds %d" t.labels.(ci)
          t.lines_.(ci) actual;
      (* attribution can only cover a subset of the resident lines *)
      let attributed = Array.fold_left ( + ) 0 t.occ.(ci) in
      if attributed > t.lines_.(ci) then
        fail "%s: %d lines attributed to objects, only %d resident"
          t.labels.(ci) attributed t.lines_.(ci);
      let objs = ref 0 in
      Array.iter (fun k -> if k > 0 then incr objs) t.occ.(ci);
      if !objs <> t.objs_.(ci) then
        fail "%s: object count %d, recount %d" t.labels.(ci) t.objs_.(ci) !objs)
    t.caches;
  match !err with None -> Ok () | Some e -> Error e

let render t =
  let tbl =
    O2_stats.Table.create
      ~columns:
        [
          ("cache", O2_stats.Table.Left);
          ("cap", O2_stats.Table.Right);
          ("lines", O2_stats.Table.Right);
          ("objects", O2_stats.Table.Right);
          ("fills", O2_stats.Table.Right);
          ("evictions", O2_stats.Table.Right);
          ("removals", O2_stats.Table.Right);
        ]
  in
  Array.iteri
    (fun ci c ->
      O2_stats.Table.add_row tbl
        [
          t.labels.(ci);
          string_of_int (Cache.capacity_lines c);
          string_of_int t.lines_.(ci);
          string_of_int t.objs_.(ci);
          string_of_int t.fills_.(ci);
          string_of_int t.evictions_.(ci);
          string_of_int t.removals_.(ci);
        ])
    t.caches;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (O2_stats.Table.render tbl);
  Printf.ksprintf (Buffer.add_string buf)
    "distinct lines on chip: %d; hardware-replicated lines: %d; timeline: \
     %d samples every %d cycles (%d dropped)\n"
    (Machine.distinct_cached_lines t.machine)
    (Presence.replicated_lines (Machine.presence t.machine))
    (Ring.length t.timeline) t.interval (Ring.dropped t.timeline);
  Buffer.contents buf
