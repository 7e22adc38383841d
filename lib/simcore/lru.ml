(* Array-based LRU, struct-of-arrays with packed links. Slots hold keys
   doubly linked through a single packed [links] array (slot [cap] is the
   list sentinel):

     links.(s) = (prev lsl 24) lor next

   so an unlink reads both neighbours in one load. Key -> slot is a
   line-indexed two-level map. A directory indexed by [key lsr page_bits]
   holds the offset of a page in [arena]; a page is [page_lines] words of
   [slot + 1] (0 = absent) for consecutive keys, then one word counting
   its live entries. Cache lines are walked in runs (a 4 KB cluster is
   64 consecutive lines), so a run's lookups share one page instead of
   scattering over the host's caches.

   Page 0 of the arena is never written: directory entries without live
   keys hold offset 0, so a lookup never branches on the entry. A page
   whose count drops to 0 is unmapped onto the spare stack, and new pages
   come from that stack first: steady-state fills and evictions allocate
   nothing, and live pages never outnumber resident keys. Pages live in
   one arena rather than one block each, so the directory and the stack
   hold plain ints (no write barrier) and the GC sees a few large blocks,
   not one small block per page. Keys must be non-negative and capacity
   below 2^24. *)

type t = {
  cap : int;
  mutable size : int;
  mutable keys : int array;  (* slot -> key (for eviction and iteration) *)
  mutable links : int array;
      (* slot -> (prev lsl 24) lor next; slot cap = sentinel *)
  mutable free : int;  (* head of the free-slot list, threaded via next *)
  mutable dir : int array;  (* key lsr page_bits -> page offset, 0 = none *)
  mutable arena : int array;  (* page 0 (all-zero), then pages 1..pages *)
  mutable spare : int array;  (* offsets of zeroed unmapped pages *)
  mutable nspare : int;
  mutable pages : int;  (* pages allocated in the arena beyond page 0 *)
}

let link_bits = 24
let link_mask = (1 lsl link_bits) - 1

let page_bits = 6
let page_lines = 1 lsl page_bits
let page_mask = page_lines - 1
let page_words = page_lines + 1  (* entries, then the live count *)

let next_of l = l land link_mask
let prev_of l = l lsr link_bits
let pack_link ~prev ~next = (prev lsl link_bits) lor next

let set_next t s n = t.links.(s) <- (t.links.(s) land lnot link_mask) lor n

let set_prev t s p =
  t.links.(s) <- (t.links.(s) land link_mask) lor (p lsl link_bits)

(* Creation defers the arrays until the first insert: a Machine builds
   L1+L2+L3 LRUs for every core and chip up front (megabytes of int
   arrays on amd16), but small cells and short tests touch a handful of
   caches — a victim L3 that never sees an eviction never pays for its
   slots or pages. Before then the directory is empty, so every lookup
   misses. *)
let create ~cap =
  if cap <= 0 then invalid_arg "Lru.create: capacity must be positive";
  if cap >= 1 lsl link_bits then
    invalid_arg "Lru.create: capacity exceeds the packed 24-bit slot index";
  { cap; size = 0; keys = [||]; links = [||]; free = 0; dir = [||];
    arena = [||]; spare = [||]; nspare = 0; pages = 0 }

let reset_links t =
  for i = 0 to t.cap - 1 do
    t.links.(i) <- pack_link ~prev:0 ~next:(i + 1)
  done;
  t.links.(t.cap - 1) <- pack_link ~prev:0 ~next:link_mask;
  t.links.(t.cap) <- pack_link ~prev:t.cap ~next:t.cap;
  t.free <- 0

(* One-time slot allocation on the first insert. Free list through the
   next field; safe at [cap = 1] because the free-list terminator lives
   at index [cap - 1 = 0] and the sentinel self-links live at index
   [cap = 1] — distinct cells, so the write order cannot clobber
   anything (pinned by the cap=1 tests in suite_lru). The arena starts
   with room for [cap] dense keys, which need not start on a page
   boundary. *)
let ensure_slots t =
  if Array.length t.links = 0 then begin
    t.links <- Array.make (t.cap + 1) 0;
    t.keys <- Array.make t.cap 0;
    reset_links t;
    let room = 1 + ((t.cap + page_mask) / page_lines) in
    t.arena <- Array.make ((room + 1) * page_words) 0;
    t.spare <- Array.make room 0
  end
  [@@alloc_ok "one-time lazy allocation of the slot arrays"]

let capacity t = t.cap
let length t = t.size

(* A negative key shifts to a huge page index, past the directory: it
   reads as absent. *)
let find_slot t key =
  let pi = key lsr page_bits in
  if pi >= Array.length t.dir then -1
  else t.arena.(t.dir.(pi) + (key land page_mask)) - 1  (* -1 when absent *)

let mem t key = find_slot t key >= 0

let unlink t s =
  let l = t.links.(s) in
  let p = prev_of l and n = next_of l in
  set_next t p n;
  set_prev t n p

let push_front t s =
  let sent = t.cap in
  let head = next_of t.links.(sent) in
  t.links.(s) <- pack_link ~prev:sent ~next:head;
  set_prev t head s;
  set_next t sent s

let touch t key =
  let s = find_slot t key in
  if s < 0 then false
  else begin
    (* MRU fast path: repeated hits on the hottest line skip the relink. *)
    if prev_of t.links.(s) <> t.cap then begin
      unlink t s;
      push_front t s
    end;
    true
  end

(* Directory growth to cover page [pi]: amortized doubling, at most once
   per doubling of the highest key inserted. *)
let grow_dir t pi =
  let rec next n = if n > pi then n else next (2 * n) in
  let old = Array.length t.dir in
  let dir = Array.make (next (if old = 0 then 16 else 2 * old)) 0 in
  Array.blit t.dir 0 dir 0 old;
  t.dir <- dir
  [@@alloc_ok "amortized doubling of the page directory"]

(* Arena growth when every allocated page is mapped: doubling, capped at
   the [cap] pages that [cap] scattered keys could need. The spare stack
   grows with it, so it always has room for every allocated page and
   [unmap_key] never allocates. *)
let grow_arena t =
  let room = (Array.length t.arena / page_words) - 1 in
  let room' = if 2 * room < t.cap then 2 * room else t.cap in
  let arena = Array.make ((room' + 1) * page_words) 0 in
  Array.blit t.arena 0 arena 0 (Array.length t.arena);
  t.arena <- arena;
  let spare = Array.make room' 0 in
  Array.blit t.spare 0 spare 0 t.nspare;
  t.spare <- spare
  [@@alloc_ok "arena growth past the high-water mark of live pages"]

(* A zeroed page's offset: a spare one if any, else the next fresh one. *)
let take_page t =
  if t.nspare > 0 then begin
    t.nspare <- t.nspare - 1;
    t.spare.(t.nspare)
  end
  else begin
    if (t.pages + 2) * page_words > Array.length t.arena then grow_arena t;
    t.pages <- t.pages + 1;
    t.pages * page_words
  end

(* Map [key] to slot [s], taking a page when its range has none. *)
let map_key t key s =
  let pi = key lsr page_bits in
  if pi >= Array.length t.dir then grow_dir t pi;
  let b = t.dir.(pi) in
  let b =
    if b <> 0 then b
    else begin
      let b = take_page t in
      t.dir.(pi) <- b;
      b
    end
  in
  t.arena.(b + (key land page_mask)) <- s + 1;
  t.arena.(b + page_lines) <- t.arena.(b + page_lines) + 1

(* Unmap a present [key]; its page goes onto the spare stack, all-zero,
   when this was its last live entry. *)
let unmap_key t key =
  let pi = key lsr page_bits in
  let b = t.dir.(pi) in
  t.arena.(b + (key land page_mask)) <- 0;
  let n = t.arena.(b + page_lines) - 1 in
  t.arena.(b + page_lines) <- n;
  if n = 0 then begin
    t.dir.(pi) <- 0;
    t.spare.(t.nspare) <- b;
    t.nspare <- t.nspare + 1
  end

let remove t key =
  let s = find_slot t key in
  if s < 0 then false
  else begin
    unlink t s;
    unmap_key t key;
    set_next t s t.free;
    t.free <- s;
    t.size <- t.size - 1;
    true
  end

let lru_key t =
  if t.size = 0 then None else Some t.keys.(prev_of t.links.(t.cap))

(* Allocation-free insert: the evicted key comes back as a bare int, with
   [-1] for "nothing evicted", which no key can be. *)
let install t key s =
  t.keys.(s) <- key;
  push_front t s;
  map_key t key s;
  t.size <- t.size + 1

let add_evict t key =
  if key < 0 then invalid_arg "Lru.add_evict: negative key";
  if touch t key then -1
  else begin
    ensure_slots t;
    if t.size >= t.cap then begin
      (* evict the tail slot and reuse it *)
      let tail = prev_of t.links.(t.cap) in
      let vkey = t.keys.(tail) in
      unlink t tail;
      unmap_key t vkey;
      t.size <- t.size - 1;
      install t key tail;
      vkey
    end
    else begin
      let s = t.free in
      t.free <- next_of t.links.(s);
      install t key s;
      -1
    end
  end

let add t key =
  let victim = add_evict t key in
  if victim < 0 then None else Some victim

let iter f t =
  if t.size > 0 then begin
    let s = ref (next_of t.links.(t.cap)) in
    while !s <> t.cap do
      f t.keys.(!s);
      s := next_of t.links.(!s)
    done
  end

let fold f acc t =
  let acc = ref acc in
  iter (fun k -> acc := f !acc k) t;
  !acc

let to_list t = List.rev (fold (fun acc k -> k :: acc) [] t)

(* Zero and unmap every live page, visiting resident keys only, so a
   clear costs O(size) rather than O(directory). *)
let clear t =
  if Array.length t.links > 0 then begin
    iter
      (fun key ->
        let pi = key lsr page_bits in
        let b = t.dir.(pi) in
        if b <> 0 then begin
          Array.fill t.arena b page_words 0;
          t.dir.(pi) <- 0;
          t.spare.(t.nspare) <- b;
          t.nspare <- t.nspare + 1
        end)
      t;
    t.size <- 0;
    reset_links t
  end

let page_zeroed t b =
  let rec go i = i >= page_words || (t.arena.(b + i) = 0 && go (i + 1)) in
  go 0

(* Structure checks that visit live pages and spare pages only, never
   the whole directory: a directory covering 25-bit keys is 2^19 words. *)
let check_pages t l =
  (* (page index, live keys on it) for every mapped page *)
  let rec runs acc = function
    | [] -> acc
    | pi :: rest -> (
        match acc with
        | (pj, n) :: acc' when pj = pi -> runs ((pi, n + 1) :: acc') rest
        | _ -> runs ((pi, 1) :: acc) rest)
  in
  let on_page =
    runs [] (List.sort compare (List.map (fun k -> k lsr page_bits) l))
  in
  let page_ok (pi, live) =
    let b = t.dir.(pi) in
    let rec entries i n =
      if i = page_lines then n
      else entries (i + 1) (if t.arena.(b + i) <> 0 then n + 1 else n)
    in
    b <> 0 && t.arena.(b + page_lines) = live && entries 0 0 = live
  in
  let rec spares_zeroed i =
    i >= t.nspare
    || (t.spare.(i) <> 0 && page_zeroed t t.spare.(i) && spares_zeroed (i + 1))
  in
  if not (page_zeroed t 0) then Error "page 0 was written"
  else if
    not
      (List.for_all
         (fun k ->
           let s = find_slot t k in
           s >= 0 && t.keys.(s) = k)
         l)
  then Error "page entry disagrees with slot key"
  else if not (List.for_all page_ok on_page) then
    Error "page live count disagrees with its entries"
  else if not (spares_zeroed 0) then Error "spare page not zeroed"
  else if List.length on_page + t.nspare <> t.pages then
    Error "pages leaked: mapped + spare <> allocated"
  else Ok ()

let check_invariants t =
  if Array.length t.links = 0 then
    if t.size <> 0 then Error "unallocated slots but size <> 0" else Ok ()
  else
  let l = to_list t in
  let n = List.length l in
  if n <> t.size then Error "list length <> size"
  else if n > t.cap then Error "over capacity"
  else if List.length (List.sort_uniq compare l) <> n then
    Error "duplicate keys in list"
  else if not (List.for_all (mem t) l) then Error "list key missing in table"
  else begin
    (* walk backwards too, to catch broken prev pointers *)
    let back = ref [] in
    let s = ref (prev_of t.links.(t.cap)) in
    while !s <> t.cap do
      back := t.keys.(!s) :: !back;
      s := prev_of t.links.(!s)
    done;
    if !back <> l then Error "prev-chain disagrees with next-chain"
    else check_pages t l
  end
