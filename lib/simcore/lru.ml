(* Array-based LRU whose list nodes live in a line-indexed page arena.
   A directory indexed by [key lsr page_bits] holds the offset of a
   64-word page in [arena]; key [k]'s node is the arena word

     dir.(k lsr 6) + (k land 63)

   which is 0 when [k] is absent, and otherwise a present bit beside the
   arena offsets of its prev and next nodes:

     present lor (prev lsl 30) lor next

   Offset 0 means "none": page 0 of the arena is never written, so it
   holds no node, and directory entries without live keys point at it,
   so a lookup never branches on the entry. The list ends are the record
   fields [head] (most recent) and [tail]. Each page's live count and
   directory index sit in the side arrays [live] and [page_key], indexed
   by [offset lsr 6], so a node's key is a shift and an or.

   Cache lines are walked in runs (a 4 KB cluster is 64 consecutive
   lines, touched, filled and evicted in order), so a run's nodes share
   one page, and list neighbours are address neighbours: a relink mostly
   stays inside one page.

   A page whose count drops to 0 is unmapped onto the spare stack, all
   zero, and new pages come from that stack first: steady-state fills
   and evictions allocate nothing, and live pages never outnumber
   resident keys. Pages live in one arena rather than one block each, so
   the directory and the stack hold plain ints (no write barrier) and
   the GC sees a few large blocks, not one small block per page. Keys
   must be non-negative and capacity below 2^24, which keeps every
   offset within 30 bits. *)

type t = {
  cap : int;
  mutable size : int;
  mutable head : int;  (* most recently used node, 0 = empty *)
  mutable tail : int;  (* least recently used node, 0 = empty *)
  mutable dir : int array;  (* key lsr page_bits -> page offset, 0 = none *)
  mutable arena : int array;  (* page 0 (all-zero), then pages 1..pages *)
  mutable live : int array;  (* arena page -> its live nodes *)
  mutable page_key : int array;  (* arena page -> its directory index *)
  mutable spare : int array;  (* offsets of zeroed unmapped pages *)
  mutable nspare : int;
  mutable pages : int;  (* pages allocated in the arena beyond page 0 *)
}

let page_bits = 6
let page_lines = 1 lsl page_bits
let page_mask = page_lines - 1

let off_bits = 30
let off_mask = (1 lsl off_bits) - 1
let present = 1 lsl (2 * off_bits)

let[@inline] next_of w = w land off_mask
let[@inline] prev_of w = (w lsr off_bits) land off_mask

let[@inline] set_next t o n =
  t.arena.(o) <- (t.arena.(o) land lnot off_mask) lor n

let[@inline] set_prev t o p =
  t.arena.(o) <-
    (t.arena.(o) land lnot (off_mask lsl off_bits)) lor (p lsl off_bits)

let[@inline] key_of t o =
  (t.page_key.(o lsr page_bits) lsl page_bits) lor (o land page_mask)

(* Creation defers the arrays until the first insert: a Machine builds
   L1+L2+L3 LRUs for every core and chip up front (megabytes of int
   arrays on amd16), but small cells and short tests touch a handful of
   caches — a victim L3 that never sees an eviction never pays for its
   pages. Before then the directory is empty, so every lookup misses. *)
let create ~cap =
  if cap <= 0 then invalid_arg "Lru.create: capacity must be positive";
  if cap >= 1 lsl 24 then
    invalid_arg "Lru.create: capacity exceeds the packed 30-bit node offsets";
  { cap; size = 0; head = 0; tail = 0; dir = [||]; arena = [||];
    live = [||]; page_key = [||]; spare = [||]; nspare = 0; pages = 0 }

let capacity t = t.cap
let length t = t.size

(* The node of a present [key], else 0. A negative key shifts to a huge
   page index, past the directory: it reads as absent. *)
let[@inline] find t key =
  let pi = key lsr page_bits in
  if pi >= Array.length t.dir then 0
  else
    let o = t.dir.(pi) + (key land page_mask) in
    if t.arena.(o) = 0 then 0 else o

let[@inline] mem t key = find t key <> 0

let[@inline] unlink t o =
  let w = t.arena.(o) in
  let p = prev_of w and n = next_of w in
  if p = 0 then t.head <- n else set_next t p n;
  if n = 0 then t.tail <- p else set_prev t n p

let[@inline] push_front t o =
  let h = t.head in
  t.arena.(o) <- present lor h;
  if h = 0 then t.tail <- o else set_prev t h o;
  t.head <- o

let[@inline] touch t key =
  let o = find t key in
  if o = 0 then false
  else begin
    (* MRU fast path: repeated hits on the hottest line skip the relink. *)
    if o <> t.head then begin
      unlink t o;
      push_front t o
    end;
    true
  end

(* Move the list segment from [top] down to [bot] (top nearer the head)
   to the head with one splice. *)
let[@inline] splice_front t top bot =
  if top <> t.head then begin
    let p = prev_of t.arena.(top) and n = next_of t.arena.(bot) in
    set_next t p n;
    if n = 0 then t.tail <- p else set_prev t n p;
    let h = t.head in
    set_prev t top 0;
    set_next t bot h;
    set_prev t h bot;
    t.head <- top
  end

(* The node of [key + 1], given [o], the node of a present [key]: inside
   a page it is the next arena word, across a boundary a [find]. *)
let[@inline] node_after t key o =
  if (key + 1) land page_mask <> 0 then
    if t.arena.(o + 1) = 0 then 0 else o + 1
  else find t (key + 1)

(* Touching [key], [key + 1], ... one by one moves each to the head, so
   they end up above the rest in descending key order. A maximal list
   segment in which each key's [prev] is the next key's node is already
   in that order: touching its keys one by one ends exactly as splicing
   the whole segment to the head does. [o] is [key]'s node, [bot] the
   bottom of the segment being climbed, and [n] the keys touched so far,
   [key] included. *)
let rec climb t key last bot o n =
  let o' = if key < last then node_after t key o else 0 in
  if o' = 0 then begin
    splice_front t o bot;
    n
  end
  else if prev_of t.arena.(o) = o' then climb t (key + 1) last bot o' (n + 1)
  else begin
    splice_front t o bot;
    climb t (key + 1) last o' o' (n + 1)
  end

let touch_run t first last =
  if first > last then 0
  else
    let o = find t first in
    if o = 0 then 0 else climb t first last o o 1

(* Directory growth to cover page [pi]: amortized doubling, at most once
   per doubling of the highest key inserted. *)
let grow_dir t pi =
  let rec next n = if n > pi then n else next (2 * n) in
  let old = Array.length t.dir in
  let dir = Array.make (next (if old = 0 then 16 else 2 * old)) 0 in
  Array.blit t.dir 0 dir 0 old;
  t.dir <- dir
  [@@alloc_ok "amortized doubling of the page directory"]

let extend a n =
  let b = Array.make n 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Arena growth when every allocated page is mapped. The first call, on
   the first insert, makes room for [cap] dense keys, which need not
   start on a page boundary; later calls double, capped at the [cap]
   pages that [cap] scattered keys could need. The page headers and the
   spare stack grow with it, so the stack always has room for every
   allocated page and [unmap_node] never allocates. *)
let grow_arena t =
  let room = Array.length t.live - 1 in
  let room =
    if room < 0 then 1 + ((t.cap + page_mask) / page_lines)
    else if 2 * room < t.cap then 2 * room
    else t.cap
  in
  t.arena <- extend t.arena ((room + 1) lsl page_bits);
  t.live <- extend t.live (room + 1);
  t.page_key <- extend t.page_key (room + 1);
  t.spare <- extend t.spare room
  [@@alloc_ok "arena growth past the high-water mark of live pages"]

(* A zeroed page's offset: a spare one if any, else the next fresh one. *)
let take_page t =
  if t.nspare > 0 then begin
    t.nspare <- t.nspare - 1;
    t.spare.(t.nspare)
  end
  else begin
    if t.pages + 1 >= Array.length t.live then grow_arena t;
    t.pages <- t.pages + 1;
    t.pages lsl page_bits
  end

(* The node for an absent [key], counted live on its page; takes a page
   when the key's range has none. The caller links the node. *)
let map_key t key =
  let pi = key lsr page_bits in
  if pi >= Array.length t.dir then grow_dir t pi;
  let b = t.dir.(pi) in
  let b =
    if b <> 0 then b
    else begin
      let b = take_page t in
      t.dir.(pi) <- b;
      t.page_key.(b lsr page_bits) <- pi;
      b
    end
  in
  let p = b lsr page_bits in
  t.live.(p) <- t.live.(p) + 1;
  b lor (key land page_mask)

(* Clear an unlinked node; its page goes onto the spare stack, page and
   headers all-zero, when this was its last live node. *)
let unmap_node t o =
  t.arena.(o) <- 0;
  let p = o lsr page_bits in
  let n = t.live.(p) - 1 in
  t.live.(p) <- n;
  if n = 0 then begin
    t.dir.(t.page_key.(p)) <- 0;
    t.page_key.(p) <- 0;
    t.spare.(t.nspare) <- p lsl page_bits;
    t.nspare <- t.nspare + 1
  end

let remove t key =
  let o = find t key in
  if o = 0 then false
  else begin
    unlink t o;
    unmap_node t o;
    t.size <- t.size - 1;
    true
  end

let lru_key t = if t.size = 0 then None else Some (key_of t t.tail)

(* Allocation-free insert: the evicted key comes back as a bare int, with
   [-1] for "nothing evicted", which no key can be. The victim leaves
   before the new key maps, so a page it empties can come straight back
   for the new key's range. [insert_absent] is the miss path's fill: its
   caller has just probed and missed, so it skips the [touch]. *)
let link_absent t key =
  let victim =
    if t.size < t.cap then -1
    else begin
      let o = t.tail in
      let vkey = key_of t o in
      unlink t o;
      unmap_node t o;
      t.size <- t.size - 1;
      vkey
    end
  in
  push_front t (map_key t key);
  t.size <- t.size + 1;
  victim

let insert_absent t key =
  if key < 0 then invalid_arg "Lru.insert_absent: negative key";
  link_absent t key

let add_evict t key =
  if key < 0 then invalid_arg "Lru.add_evict: negative key";
  if touch t key then -1 else link_absent t key

let add t key =
  let victim = add_evict t key in
  if victim < 0 then None else Some victim

let iter f t =
  let o = ref t.head in
  while !o <> 0 do
    f (key_of t !o);
    o := next_of t.arena.(!o)
  done

let fold f acc t =
  let acc = ref acc in
  iter (fun k -> acc := f !acc k) t;
  !acc

let to_list t = List.rev (fold (fun acc k -> k :: acc) [] t)

(* Node offsets from [o] along [step], at most [cap + 1] of them, so a
   cycle cannot hang the check. *)
let walk t o step =
  let rec go o n acc =
    if o = 0 || n > t.cap then List.rev acc
    else go (step t.arena.(o)) (n + 1) (o :: acc)
  in
  go o 0 []

(* Structure checks that visit listed, mapped and spare pages only, never
   the whole directory: a directory covering 25-bit keys is 2^19 words. *)
let check_invariants t =
  let fwd = walk t t.head next_of in
  let n = List.length fwd in
  let page_zeroed p =
    let rec go i = i = page_lines || (t.arena.((p lsl page_bits) + i) = 0 && go (i + 1)) in
    go 0 && t.live.(p) = 0 && t.page_key.(p) = 0
  in
  (* (arena page, listed nodes on it) for every mapped page *)
  let rec runs acc = function
    | [] -> acc
    | p :: rest -> (
        match acc with
        | (q, k) :: acc' when q = p -> runs ((p, k + 1) :: acc') rest
        | _ -> runs ((p, 1) :: acc) rest)
  in
  let mapped =
    runs [] (List.sort compare (List.map (fun o -> o lsr page_bits) fwd))
  in
  let page_ok (p, listed) =
    let rec nodes i k =
      if i = page_lines then k
      else nodes (i + 1) (if t.arena.((p lsl page_bits) + i) <> 0 then k + 1 else k)
    in
    t.dir.(t.page_key.(p)) = p lsl page_bits
    && t.live.(p) = listed && nodes 0 0 = listed
  in
  let rec spares_zeroed i =
    i >= t.nspare
    || (t.spare.(i) <> 0
       && page_zeroed (t.spare.(i) lsr page_bits)
       && spares_zeroed (i + 1))
  in
  if n <> t.size then Error "list length <> size"
  else if n > t.cap then Error "over capacity"
  else if List.rev (walk t t.tail prev_of) <> fwd then
    Error "prev-chain disagrees with next-chain"
  else if List.length (List.sort_uniq compare (List.map (key_of t) fwd)) <> n
  then Error "duplicate keys in list"
  else if
    not
      (List.for_all
         (fun o -> t.arena.(o) land present <> 0 && find t (key_of t o) = o)
         fwd)
  then Error "listed node absent or not at its key"
  else if Array.length t.live > 0 && not (page_zeroed 0) then
    Error "page 0 was written"
  else if not (List.for_all page_ok mapped) then
    Error "page live count or index disagrees with its nodes"
  else if not (spares_zeroed 0) then Error "spare page or header not zeroed"
  else if List.length mapped + t.nspare <> t.pages then
    Error "pages leaked: mapped + spare <> allocated"
  else Ok ()
