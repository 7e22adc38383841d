(** Loading dune's .cmt files plus the compiler-libs plumbing shared by
    all passes: normalized paths, top-level binding maps, and the
    [@alloc_ok] attribute helpers. *)

type module_info = {
  cmt_path : string;
  modname : string;  (** wrapped name, e.g. ["O2_runtime__Event_queue"] *)
  short : string;  (** unwrapped, e.g. ["Event_queue"] *)
  source : string;  (** e.g. ["lib/runtime/event_queue.ml"] *)
  structure : Typedtree.structure;
}

type interface_info = {
  intf_modname : string;
  intf_source : string;  (** e.g. ["lib/runtime/hist.mli"] *)
  signature : Typedtree.signature;
}

type tree = {
  modules : module_info list;
      (** implementations under [lib/], [bin/], [perfbench/],
          [examples/] and [test/] (not [test/fixtures/]) *)
  interfaces : interface_info list;  (** interfaces under [lib/] *)
}

val load_tree : ?build_dir:string -> root:string -> unit -> (tree, string) result
(** Load every .cmt and [lib/] .cmti of the build tree, deduplicated by
    source file. [Error] when the tree holds no library module. *)

val split_component : string -> string list
val path_components : Path.t -> string list
(** ["O2_runtime__Api.read"] becomes [["O2_runtime"; "Api"; "read"]]. *)

val path_name : Path.t -> string
val path_tail : k:int -> Path.t -> string
val path_is : modname:string -> fn:string -> Path.t -> bool

val has_attr : string -> Parsetree.attributes -> bool
val attr_reason : string -> Parsetree.attributes -> string option

val top_bindings :
  Typedtree.structure -> (string, Typedtree.value_binding) Hashtbl.t
(** Top-level value bindings of the structure, keyed by name. *)

val top_ident_stamps : Typedtree.structure -> (string, unit) Hashtbl.t
(** Idents bound at the structure's top level by [let] or [external]
    (including inside nested structures), keyed by [Ident.unique_name] —
    the set against which
    closure free variables are judged constant and mutation roots judged
    module-level. *)

(**/**)

val load : string -> module_info option
(** For tests: the fixtures load one .cmt.
    Read one .cmt; [None] for interfaces, packs, or unreadable files. *)

val load_interface : string -> interface_info option
(** For tests: the export fixture loads one .cmti.
    Read one .cmti; [None] for anything else. *)
