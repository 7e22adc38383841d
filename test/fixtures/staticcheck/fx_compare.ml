(* Polymorphic-comparison fixture: suite_staticcheck points a manifest at
   the first four functions and expects one poly-compare finding per use
   of Stdlib.min/max/compare, none for the int-typed comparisons, and
   none in the function the manifest does not name. *)

let clock_max clock time = max clock time

let clamp_min n = Stdlib.min n 0

let sort_keys keys = Array.sort compare keys

(* int-typed operators and Int.max: one machine compare each, no finding *)
let int_typed (a : int) b = if a >= b then a else if a < 0 then Int.max b 0 else b

(* not in the manifest: no finding *)
let cold a b = max a b
