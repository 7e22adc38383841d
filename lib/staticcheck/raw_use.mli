(** Raw-primitive pass: typedtree port of the old textual allowlist
    rules. Flags resolved uses of [Mutex]/[Domain]/[Condition] outside
    the allowlisted pool shim, and [Obj.magic] anywhere. *)

val default_allowlist : string list
(** Source paths permitted to touch raw primitives: the one concurrency
    shim, [lib/native/native_pool.ml] (the worker domains of the native
    backend and of simulation sweeps). *)

val check_module :
  ?allowlist:string list -> Cmt_load.module_info -> Finding.t list

val check :
  ?allowlist:string list -> Cmt_load.module_info list -> Finding.t list
