type obj_id = int
type extent = { id : obj_id; base : int; size : int; name : string }

(* Ids are handed out densely (the n-th allocation gets id n) and the bump
   allocator only ever grows upward, so [exts] is simultaneously sorted by
   base *and* indexed by id: [exts.(i).id = i]. That makes the id lookup a
   bounds-checked array read, and lets the address lookups binary-search the
   flat [bases]/[sizes] int arrays instead of chasing extent records — the
   arrays stay hot in cache across the simulator's per-access attribution
   calls. *)
type t = {
  line_bytes : int;
  mutable next_addr : int;
  mutable exts : extent array;  (* sorted by base = id order; append-only *)
  mutable bases : int array;    (* bases.(i) = exts.(i).base *)
  mutable sizes : int array;    (* sizes.(i) = exts.(i).size *)
  mutable count : int;
}

let create ?(base = 0x1000) ~line_bytes () =
  if line_bytes <= 0 then invalid_arg "Memsys.create: line_bytes";
  {
    line_bytes;
    next_addr = base;
    exts = [||];
    bases = [||];
    sizes = [||];
    count = 0;
  }

let round_up v align = (v + align - 1) / align * align

let push t ext =
  if t.count = Array.length t.exts then begin
    let cap = max 64 (2 * t.count) in
    let bigger = Array.make cap ext in
    Array.blit t.exts 0 bigger 0 t.count;
    t.exts <- bigger;
    let bigger_b = Array.make cap 0 in
    Array.blit t.bases 0 bigger_b 0 t.count;
    t.bases <- bigger_b;
    let bigger_s = Array.make cap 0 in
    Array.blit t.sizes 0 bigger_s 0 t.count;
    t.sizes <- bigger_s
  end;
  t.exts.(t.count) <- ext;
  t.bases.(t.count) <- ext.base;
  t.sizes.(t.count) <- ext.size;
  t.count <- t.count + 1

let alloc t ~name ~size =
  if size <= 0 then invalid_arg "Memsys.alloc: size must be positive";
  let size = round_up size t.line_bytes in
  let base = t.next_addr in
  let id = t.count in
  let ext = { id; base; size; name } in
  t.next_addr <- base + size;
  push t ext;
  ext

let alloc_isolated t ~name ~size =
  (* A line-aligned allocation of whole lines never shares a line with a
     neighbour, but make the isolation explicit by padding to at least one
     full line on its own. *)
  let size = max size t.line_bytes in
  alloc t ~name ~size

let find t id =
  if id >= 0 && id < t.count then
    (Some t.exts.(id) [@alloc_ok "the option result is the only allocation"])
  else None

let find_exn t id =
  if id >= 0 && id < t.count then t.exts.(id)
  else invalid_arg (Printf.sprintf "Memsys.find_exn: no object %d" id)

(* Index of the last extent with base <= [addr] in bases.(lo..hi); the
   search runs on every attributed access, so it recurses on ints rather
   than allocating ref cells. *)
let rec bsearch bases addr lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi + 1) / 2 in
    if Array.unsafe_get bases mid <= addr then bsearch bases addr mid hi
    else bsearch bases addr lo (mid - 1)
  end

(* Index of the extent that actually contains [addr], or -1. Pure
   int-array binary search; shared by both lookup entry points. *)
let index_at t ~addr =
  if t.count = 0 then -1
  else begin
    let bases = t.bases in
    let i = bsearch bases addr 0 (t.count - 1) in
    if Array.unsafe_get bases i <= addr
       && addr < Array.unsafe_get bases i + Array.unsafe_get t.sizes i
    then i
    else -1
  end

let object_at t ~addr =
  match index_at t ~addr with -1 -> None | i -> Some t.exts.(i)

(* Allocation-free variant of [object_at] for the observatory's access
   attribution: the id of the extent containing [addr], or -1. Runs once
   per observed cache fill, so it must not box an option. *)
let object_id_at t ~addr = index_at t ~addr

let lines_of t ext =
  let first = ext.base / t.line_bytes in
  let last = (ext.base + ext.size - 1) / t.line_bytes in
  last - first + 1

let size t = t.count
