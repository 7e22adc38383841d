(** Ignored-result pass: flags [Stdlib.ignore] applied to an expression
    of type [unit] — as [ignore e], [e |> ignore] or [ignore @@ e] —
    whatever the callee and however the source is laid out. *)

val check : Cmt_load.module_info list -> Finding.t list

(**/**)

val check_module : Cmt_load.module_info -> Finding.t list
(** For tests: the fixtures run one pass on one module. *)
