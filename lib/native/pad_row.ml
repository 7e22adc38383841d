(* One block: [guard] words, the live words, [guard] words. The
   accessors are forced inline: they sit inside the op bodies, where a
   call per word was measured at ~10% on one domain. Each names its row
   [t], so its load or store is an int-array access with no float-array
   test. *)
type t = int array

let guard = 16
let make n = Array.make (n + (2 * guard)) 0
let[@inline] length (r : t) = Array.length r - (2 * guard)
let[@inline] get (r : t) i = r.(guard + i)
let[@inline] set (r : t) i v = r.(guard + i) <- v

let[@inline] incr r i =
  let j = guard + i in
  r.(j) <- r.(j) + 1

let[@inline] find_in r ~lo ~len key =
  let base = guard + lo in
  let j = Int_scan.first r ~lo:base ~hi:(base + len) key in
  if j < 0 then j else j - base

let grow r n =
  let live = length r in
  if n < live then invalid_arg "Pad_row.grow: cannot shrink";
  let r' = make n in
  Array.blit r guard r' guard live;
  r'

let guards_clear r =
  let ok = ref true in
  let last = Array.length r - 1 in
  for j = 0 to guard - 1 do
    if r.(j) <> 0 || r.(last - j) <> 0 then ok := false
  done;
  !ok
