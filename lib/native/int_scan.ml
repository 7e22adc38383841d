(* The scan is C (native_stubs.c): AVX2 block compares where the CPU
   has them, a scalar loop for the last 0-7 words and on every other
   host. The external allocates nothing and takes and returns untagged
   ints; the key stays tagged, as the kernel compares tagged words.
   [first]'s range check covers every load the kernel makes. *)

external scan : int array -> (int[@untagged]) -> (int[@untagged]) -> int
  -> (int[@untagged]) = "o2_int_scan_first_byte" "o2_int_scan_first"
[@@noalloc]

let first (a : int array) ~lo ~hi (key : int) =
  if lo < 0 || lo > hi || hi > Array.length a then
    invalid_arg "Int_scan.first: range outside the array";
  scan a lo hi key

external scan_scalar :
  int array -> (int[@untagged]) -> (int[@untagged]) -> int -> (int[@untagged])
  = "o2_int_scan_first_scalar_byte" "o2_int_scan_first_scalar"
[@@noalloc]

let first_scalar (a : int array) ~lo ~hi (key : int) =
  if lo < 0 || lo > hi || hi > Array.length a then
    invalid_arg "Int_scan.first: range outside the array";
  scan_scalar a lo hi key
