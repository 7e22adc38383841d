(* The module the export fixture's user packs as a first-class module:
   its one value has no other user. *)

val via_packed : int -> int
