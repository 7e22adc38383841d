(** Shared typedtree judgements: which expressions allocate, which calls
    raise, which calls block. All intraprocedural and no-flambda. *)

val loc_line : Typedtree.expression -> int
val loc_file : Typedtree.expression -> string

val callee_path : Typedtree.expression -> Path.t option
val is_raising_path : Path.t -> bool
val prim_name : Types.value_description -> string option
val is_blocking_call : Path.t -> bool

val alloc_of_node :
  top_idents:(string, unit) Hashtbl.t ->
  Typedtree.expression ->
  (string * string) option
(** [(code, description)] when evaluating the node's own constructor
    allocates; subexpressions are not considered. *)

val is_float_type : Typedtree.expression -> bool
