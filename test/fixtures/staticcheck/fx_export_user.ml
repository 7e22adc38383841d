(* The real user of the export fixture: a direct use, a use through
   [open], through a local alias, through [K.v] on a functor
   application, a module passed as a functor argument and a module packed
   as a first-class module. *)

let direct = Fx_export.used 1

let opened =
  let open Fx_export in
  via_open 1

module A = Fx_export

let aliased = A.via_alias 1

module K = Fx_export.Make (struct
  let seed = 1
end)

let applied = K.via_apply

module Takes (M : sig
  val via_argument : int -> int
end) =
struct
  let r = M.via_argument 1
end

module Taken = Takes (Fx_export_arg)

module type PACKED = sig
  val via_packed : int -> int
end

let packed = (module Fx_export_pack : PACKED)
