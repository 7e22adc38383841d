(** One diagnostic from a typedtree pass. *)

type t = {
  pass : string;
      (** which pass: ["alloc"], ["effect"], ["lock"], ["raw"], ["ignore"],
          or ["file"] for the missing-mli check *)
  code : string;  (** stable short code, e.g. ["alloc-tuple"] *)
  file : string;  (** source path as recorded in the cmt, e.g. [lib/simcore/cache.ml] *)
  line : int;
  func : string;  (** enclosing function name, [""] when not applicable *)
  message : string;
}

val make :
  pass:string -> code:string -> file:string -> line:int -> func:string ->
  string -> t

val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_json : t -> string
