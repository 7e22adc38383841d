(* Shared typedtree expression analysis: which expressions allocate, which
   calls raise, which calls block — used by the allocation pass (over the
   hot-path manifest) and by the lock-discipline pass (under a held
   spinlock). All judgements are intraprocedural and no-flambda: a callee
   that allocates internally is that function's own problem (and the
   dynamic Gc.minor_words probes' last line of defence). *)

open Typedtree

let loc_line (e : expression) = e.exp_loc.Location.loc_start.Lexing.pos_lnum
let loc_file (e : expression) = e.exp_loc.Location.loc_start.Lexing.pos_fname

(* --------------------------------------------------------------- *)
(* Callee classification                                            *)

let callee_path (e : expression) =
  match e.exp_desc with Texp_ident (p, _, _) -> Some p | _ -> None

(* Functions that never return: their whole application (arguments
   included) is an error path, excluded from allocation accounting just
   as it never runs inside a Gc.minor_words probe window. *)
let raising = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "exit" ]

let is_raising_path p =
  match List.rev (Cmt_load.path_components p) with
  | last :: _ -> List.mem last raising
  | [] -> false

(* Primitive externals ("%identity", "%array_safe_get", ...) compile to
   inline code; the only one that allocates a block by itself is ref. *)
let allocating_prims = [ "%makemutable" ]

let prim_name (vd : Types.value_description) =
  match vd.Types.val_kind with
  | Types.Val_prim p -> Some p.Primitive.prim_name
  | _ -> None

(* Stdlib entry points that unavoidably allocate their result. Matched on
   the last two normalized path components so both [List.map] and
   [Stdlib.List.map] hit. Deliberately not exhaustive — the construct
   checks below are the primary detector; this list catches the common
   "allocation hidden behind a call" cases. *)
let allocating_fns =
  [
    ("Array", [ "make"; "init"; "copy"; "append"; "sub"; "of_list"; "to_list";
                "map"; "mapi"; "make_matrix"; "concat"; "split"; "combine" ]);
    ("List", [ "map"; "mapi"; "rev"; "append"; "concat"; "flatten"; "init";
               "filter"; "filter_map"; "concat_map"; "sort"; "stable_sort";
               "sort_uniq"; "merge"; "rev_append"; "cons"; "split"; "combine";
               "of_seq" ]);
    ("String", [ "make"; "init"; "sub"; "concat"; "cat"; "split_on_char";
                 "uppercase_ascii"; "lowercase_ascii"; "capitalize_ascii";
                 "escaped"; "trim"; "of_seq" ]);
    ("Bytes", [ "create"; "make"; "init"; "copy"; "sub"; "extend"; "cat";
                "of_string"; "to_string"; "sub_string" ]);
    ("Printf", [ "sprintf" ]);
    ("Format", [ "asprintf" ]);
    ("Buffer", [ "create"; "contents"; "to_bytes"; "sub" ]);
    ("Hashtbl", [ "create"; "copy"; "fold"; "to_seq"; "to_seq_keys";
                  "to_seq_values" ]);
    ("Queue", [ "create"; "add"; "push"; "copy"; "to_seq"; "of_seq" ]);
    ("Stack", [ "create"; "push"; "of_seq"; "to_seq" ]);
    ("Option", [ "some"; "map"; "bind"; "join"; "to_list"; "to_seq" ]);
    ("Result", [ "ok"; "error"; "map"; "bind"; "to_option"; "to_list" ]);
    ("Stdlib", [ "string_of_int"; "string_of_float"; "string_of_bool";
                 "float_of_string"; "int_of_string_opt"; "float_of_string_opt" ]);
  ]

let stdlib_toplevel_allocating =
  [ "string_of_int"; "string_of_float"; "string_of_bool"; "float_of_string";
    "int_of_string_opt"; "float_of_string_opt" ]

let is_allocating_fn p =
  match List.rev (Cmt_load.path_components p) with
  | fn :: m :: _ ->
      List.exists (fun (m', fns) -> m = m' && List.mem fn fns) allocating_fns
  | [ fn ] -> List.mem fn stdlib_toplevel_allocating
  | [] -> false

(* Operators that build fresh structure. *)
let allocating_ops = [ "^"; "@"; "^^" ]

let is_allocating_op p =
  match List.rev (Cmt_load.path_components p) with
  | op :: _ -> List.mem op allocating_ops
  | [] -> false

(* Calls that block or reschedule the simulated thread: forbidden while a
   spinlock is held. Api.read/write/compute are deliberately absent — a
   locked directory scan charging simulated memory reads is the modeled
   behaviour (the paper's FAT workload holds the dir lock across the
   scan); only operations that surrender the core are blocking. *)
let blocking_under_lock =
  [
    ("Api", "yield");
    ("Api", "migrate_to");
    ("Api", "ship_to");
    ("Engine", "run");
    ("Domain", "join");
    ("Mutex", "lock");
    ("Condition", "wait");
    ("Unix", "sleep");
    ("Unix", "sleepf");
  ]

let is_blocking_call p =
  match List.rev (Cmt_load.path_components p) with
  | fn :: m :: _ -> List.mem (m, fn) blocking_under_lock
  | _ -> false

(* --------------------------------------------------------------- *)
(* Free variables (constant-closure detection)                      *)

(* A nested [fun] with no free variables outside the module's top level is
   a constant closure: closure conversion allocates it statically, so it
   costs nothing per call. Idents are compared by [Ident.unique_name]
   (name + stamp), so locals shadowing a top-level name stay distinct. *)
let free_variables ~top_idents (e : expression) =
  let used = Hashtbl.create 16 in
  let bound = Hashtbl.create 16 in
  let iter =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub ex ->
          (match ex.exp_desc with
          | Texp_ident (Path.Pident id, _, _) ->
              Hashtbl.replace used (Ident.unique_name id) (Ident.name id)
          | Texp_for (id, _, _, _, _, _) ->
              (* the loop index is bound as a bare Ident, not a pattern *)
              Hashtbl.replace bound (Ident.unique_name id) ()
          | _ -> ());
          Tast_iterator.default_iterator.expr sub ex);
      pat =
        (fun (type k) sub (p : k general_pattern) ->
          (match p.pat_desc with
          | Tpat_var (id, _) | Tpat_alias (_, id, _) ->
              Hashtbl.replace bound (Ident.unique_name id) ()
          | _ -> ());
          Tast_iterator.default_iterator.pat sub p);
    }
  in
  iter.expr iter e;
  List.sort_uniq compare
    (Hashtbl.fold
       (fun uniq name acc ->
         if Hashtbl.mem bound uniq || Hashtbl.mem top_idents uniq then acc
         else name :: acc)
       used [])

(* --------------------------------------------------------------- *)
(* Allocation judgement for a single node                           *)

(* Returns [Some (code, what)] when evaluating this node's own constructor
   (not its subexpressions) allocates on the minor heap. *)
let alloc_of_node ~top_idents (e : expression) =
  match e.exp_desc with
  | Texp_construct (lid, cd, args) ->
      if args = [] then None
      else
        Some
          ( "alloc-construct",
            Printf.sprintf "constructor %s boxes its argument%s"
              (String.concat "." (Longident.flatten lid.Location.txt))
              (if List.length args > 1 then "s" else "") )
  | Texp_variant (_, Some _) -> Some ("alloc-construct", "polymorphic variant with payload")
  | Texp_tuple _ -> Some ("alloc-tuple", "tuple construction")
  | Texp_record _ -> Some ("alloc-record", "record construction")
  | Texp_array [] -> None
  | Texp_array _ -> Some ("alloc-array", "array literal")
  | Texp_lazy _ -> Some ("alloc-lazy", "lazy suspension")
  | Texp_function _ -> (
      match free_variables ~top_idents e with
      | [] -> None
      | fvs ->
          Some
            ( "alloc-closure",
              "closure capturing " ^ String.concat ", " fvs ))
  | Texp_apply (f, _) -> (
      (* partial application: the result is itself a function -> closure *)
      let partial =
        match Types.get_desc e.exp_type with
        | Types.Tarrow _ -> true
        | _ -> false
      in
      if partial then Some ("alloc-partial", "partial application builds a closure")
      else
        match callee_path f with
        | None -> None
        | Some p ->
            if is_allocating_op p then
              Some
                ( "alloc-call",
                  Printf.sprintf "operator %s allocates its result"
                    (Cmt_load.path_tail ~k:1 p) )
            else
              let prim =
                match f.exp_desc with
                | Texp_ident (_, _, vd) -> prim_name vd
                | _ -> None
              in
              (match prim with
              | Some pn when List.mem pn allocating_prims ->
                  Some ("alloc-ref", "ref cell allocation")
              | Some _ -> None (* other primitives compile inline, no block *)
              | None ->
                  if is_allocating_fn p then
                    Some
                      ( "alloc-call",
                        Printf.sprintf "%s allocates its result"
                          (Cmt_load.path_tail ~k:2 p) )
                  else None))
  | _ -> None

(* Is this expression's type [float]? Used by the tail-position boxing
   check: a fresh float computed and returned escapes boxed. *)
let is_float_type (e : expression) =
  match Types.get_desc e.exp_type with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false
