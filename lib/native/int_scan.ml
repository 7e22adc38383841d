(* The loops are top-level and tail-recursive, so a scan is a jump loop
   that allocates nothing. The [int] annotations keep the compare and
   the loads specialised: an [int array] load has no float-array test
   and [=] on ints is one machine compare. [first]'s range check covers
   every unchecked load below it: [quads] runs while [i + 3 < hi] and
   [rest] while [i < hi]. *)

let rec rest (a : int array) (key : int) i hi =
  if i >= hi then -1
  else if Array.unsafe_get a i = key then i
  else rest a key (i + 1) hi

let rec quads (a : int array) (key : int) i stop hi =
  if i >= stop then rest a key i hi
  else if Array.unsafe_get a i = key then i
  else if Array.unsafe_get a (i + 1) = key then i + 1
  else if Array.unsafe_get a (i + 2) = key then i + 2
  else if Array.unsafe_get a (i + 3) = key then i + 3
  else quads a key (i + 4) stop hi

let first (a : int array) ~lo ~hi (key : int) =
  if lo < 0 || lo > hi || hi > Array.length a then
    invalid_arg "Int_scan.first: range outside the array";
  quads a key lo (hi - 3) hi
