(** Raw-primitive pass: typedtree port of the old textual allowlist
    rules. Flags resolved uses of [Mutex]/[Domain]/[Condition] outside
    the allowlisted pool shim, and [Obj.magic] anywhere. *)

val check :
  ?allowlist:string list -> Cmt_load.module_info list -> Finding.t list

(**/**)

val check_module :
  ?allowlist:string list -> Cmt_load.module_info -> Finding.t list
(** For tests: the fixtures run one pass on one module. *)
