(* The module the export fixture's user passes to a functor: its one
   value has no other user. *)

val via_argument : int -> int
