(* Flat per-line holder arrays, indexed directly by line number: no
   hashing, no probe chains, no per-line records. Lines are dense small
   ints (the memory map allocates from a low base), so [chips_.(line)]
   and the [words]-wide slice of [cores_] at [line * words] are the whole
   directory entry. This sits on the miss path of every simulated load —
   lookups are a bounds check and one or two array loads, and nothing on
   the lookup or update path allocates (growth is amortized doubling,
   marked [@alloc_ok] for the static manifest).

   Core masks are stored 32 bits per word so configs wider than an OCaml
   int (future64's 64 cores, or 256-core sweeps) still work: core [c]
   lives in word [c lsr 5], bit [c land 31]. Chip masks stay one int per
   line — Machine validates chips <= 62. *)

type t = {
  ncores : int;
  words : int;  (* 32-bit core-mask words per line *)
  mutable cap : int;  (* lines covered by the arrays *)
  mutable cores_ : int array;  (* line * words + w -> core mask word *)
  mutable chips_ : int array;  (* line -> chip mask *)
}

let bits_per_word = 32

let create ~cores =
  if cores <= 0 then invalid_arg "Presence.create: cores must be positive";
  let words = (cores + bits_per_word - 1) / bits_per_word in
  let cap = 4096 in
  {
    ncores = cores;
    words;
    cap;
    cores_ = Array.make (cap * words) 0;
    chips_ = Array.make cap 0;
  }

let words t = t.words

(* Grow to cover [line]: amortized doubling, off the steady-state path
   (a line is grown past at most once per run). *)
let grow t line =
  let rec next cap = if cap > line then cap else next (2 * cap) in
  let cap = next (2 * t.cap) in
  let cores_ = Array.make (cap * t.words) 0 in
  Array.blit t.cores_ 0 cores_ 0 (t.cap * t.words);
  let chips_ = Array.make cap 0 in
  Array.blit t.chips_ 0 chips_ 0 t.cap;
  t.cores_ <- cores_;
  t.chips_ <- chips_;
  t.cap <- cap
  [@@alloc_ok "amortized doubling of the per-line arrays"]

(* Whether [line]'s entry is all-zero, scanning its core words. [words]
   is 1 for <= 32 cores, 2 for future64 — the scan is a couple of loads. *)
let rec words_empty t base w =
  w < 0 || (t.cores_.(base + w) = 0 && words_empty t base (w - 1))

let line_empty t line =
  t.chips_.(line) = 0 && words_empty t (line * t.words) (t.words - 1)

(* Updates are one load and one store: no holder count is kept, so no
   update needs to know whether the line's entry was or becomes empty. *)
let set_core t ~line ~core =
  if line >= t.cap then grow t line;
  let i = (line * t.words) + (core lsr 5) in
  t.cores_.(i) <- t.cores_.(i) lor (1 lsl (core land 31))

let set_chip t ~line ~chip =
  if line >= t.cap then grow t line;
  t.chips_.(line) <- t.chips_.(line) lor (1 lsl chip)

let clear_core t ~line ~core =
  if line < t.cap then begin
    let i = (line * t.words) + (core lsr 5) in
    t.cores_.(i) <- t.cores_.(i) land lnot (1 lsl (core land 31))
  end

let clear_chip t ~line ~chip =
  if line < t.cap then t.chips_.(line) <- t.chips_.(line) land lnot (1 lsl chip)

let core_word t ~line ~w = if line < t.cap then t.cores_.((line * t.words) + w) else 0
let chip_holders t ~line = if line < t.cap then t.chips_.(line) else 0

let cached_anywhere t ~line = line < t.cap && not (line_empty t line)

(* [bit_index] is a de Bruijn multiply: [b = 1 lsl k] times the
   constant, wrapped to 63 bits, has a different top six bits for every
   [k] in 0..62, and [debruijn_index] maps them back to [k]. *)
let debruijn = 0x022fdd63cc95386d

let debruijn_index =
  let tab = Array.make 64 0 in
  for k = 0 to 62 do
    tab.(((1 lsl k) * debruijn) lsr 57) <- k
  done;
  tab

let[@inline] bit_index b i = i + debruijn_index.((b * debruijn) lsr 57)

(* The nearest-holder scans return a bare id with [-1] for "no holder",
   and loop over mask words directly — no option, no closure, no refs —
   because they run on the miss path of every simulated load. Ties on
   hop distance go to the lowest id. *)

(* Core masks grouped by hop distance, per source chip: chip [f]'s
   classes are the [words]-wide masks in [masks] from word [lo.(f)] up to
   [lo.(f + 1)], nearest class first. *)
type classes = { masks : int array; lo : int array }

let hop_classes t ~chip_of ~hops ~nchips =
  let ncores = Array.length chip_of in
  let dist f c = hops.((f * nchips) + chip_of.(c)) in
  let per_chip =
    List.init nchips (fun f ->
        List.init ncores (dist f)
        |> List.sort_uniq Int.compare
        |> List.map (fun d ->
               let m = Array.make t.words 0 in
               for c = 0 to ncores - 1 do
                 if dist f c = d then
                   m.(c lsr 5) <- m.(c lsr 5) lor (1 lsl (c land 31))
               done;
               m))
  in
  let lo = Array.make (nchips + 1) 0 in
  List.iteri
    (fun f cls -> lo.(f + 1) <- lo.(f) + (List.length cls * t.words))
    per_chip;
  { masks = Array.concat (List.concat per_chip); lo }

(* The lowest holder in the class starting at word [i] of [masks], or
   [-1]: words ascend, so the first non-empty word's lowest bit is the
   class's lowest core id. *)
let rec class_word t base masks i w xw xbit =
  if w >= t.words then -1
  else begin
    let m = t.cores_.(base + w) land masks.(i + w) in
    let m = if w = xw then m land lnot xbit else m in
    if m <> 0 then (w * bits_per_word) + bit_index (m land -m) 0
    else class_word t base masks i (w + 1) xw xbit
  end

let rec class_scan t base masks i hi xw xbit =
  if i >= hi then -1
  else begin
    let h = class_word t base masks i 0 xw xbit in
    if h >= 0 then h else class_scan t base masks (i + t.words) hi xw xbit
  end

let nearest_core t cls ~line ~exclude_core ~from_chip =
  if line >= t.cap then -1
  else
    class_scan t (line * t.words) cls.masks cls.lo.(from_chip)
      cls.lo.(from_chip + 1) (exclude_core lsr 5)
      (1 lsl (exclude_core land 31))

let rec nearest_chip_bits ~hops ~row mask best best_h =
  if mask = 0 then best
  else begin
    let bit = mask land -mask in
    let chip = bit_index bit 0 in
    let h = hops.(row + chip) in
    let rest = mask land lnot bit in
    if h < best_h then nearest_chip_bits ~hops ~row rest chip h
    else nearest_chip_bits ~hops ~row rest best best_h
  end

let nearest_chip_holder t ~line ~exclude_chip ~from_chip ~hops ~nchips =
  if line >= t.cap then -1
  else begin
    let mask = t.chips_.(line) land lnot (1 lsl exclude_chip) in
    nearest_chip_bits ~hops ~row:(from_chip * nchips) mask (-1) max_int
  end

(* Counted on demand: only reports ask. *)
let tracked_lines t =
  let n = ref 0 in
  for line = 0 to t.cap - 1 do
    if not (line_empty t line) then incr n
  done;
  !n

(* Bits set in a holder mask. *)
let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m land (m - 1)) (acc + 1) in
  go mask 0

let rec core_popcount_words t base w acc =
  if w >= t.words then acc
  else core_popcount_words t base (w + 1) (acc + popcount t.cores_.(base + w))

let core_popcount t ~line =
  if line >= t.cap then 0 else core_popcount_words t (line * t.words) 0 0

(* Lines with private copies on two or more cores: the hardware is
   replicating them, the opposite of what object packing wants. *)
let replicated_lines t =
  let n = ref 0 in
  for line = 0 to t.cap - 1 do
    if core_popcount t ~line >= 2 then incr n
  done;
  !n

(* Lines with at least one holder, ascending. (The old hash-table
   implementation iterated in probe order; every caller is
   order-independent, but ascending is what they now see.) *)
let iter_lines f t =
  for line = 0 to t.cap - 1 do
    if not (line_empty t line) then f line
  done
