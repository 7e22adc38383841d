(* Unused-export pass: every value a library interface exports must have a
   user outside its own module and outside test/, unless it sits after an
   odoc [(**/**)] marker with a doc comment that starts "For tests" and
   says why a test needs it.
   Uses are the resolved [Texp_ident] paths of every implementation, read
   through local module aliases and functor applications; a module
   passed to a functor or packed as a first-class module uses everything
   its interface exports. *)

open Typedtree

type counts = {
  values : int;
  no_user : int;
  own_module : int;
  test_only : int;
  real_users : int;
  unresolved : int;
}

type export = {
  key : string;  (* "O2_native.Backend_kv.Make.get" *)
  modkey : string list;
  name : string;
  file : string;
  line : int;
  hidden : bool;  (* after a [(**/**)] marker *)
  reason : bool;  (* its doc comment starts "For tests" *)
  mutable users : int;  (* own lor test lor real *)
}

let own = 1
let test = 2
let real = 4

(* The odoc stop comment [(**/**)] reaches the .cmti as a floating
   [ocaml.text "/*"]; each one toggles whether the items after it are
   documented. *)
let is_stop (a : Parsetree.attribute) =
  Cmt_load.attr_reason "ocaml.text" [ a ] = Some "/*"

(* The top-level values of an interface, plus those of a top-level
   functor's result signature: [K.v] on [module K = F (M)] names them. *)
let exports_of (i : Cmt_load.interface_info) =
  let out = ref [] in
  let rec items modkey hidden = function
    | [] -> ()
    | it :: rest -> (
        match it.sig_desc with
        | Tsig_attribute a when is_stop a -> items modkey (not hidden) rest
        | Tsig_value vd ->
            let name = Ident.name vd.val_id in
            out :=
              {
                key = String.concat "." (modkey @ [ name ]);
                modkey;
                name;
                file = i.Cmt_load.intf_source;
                line = vd.val_loc.Location.loc_start.Lexing.pos_lnum;
                hidden;
                reason =
                  (match Cmt_load.attr_reason "ocaml.doc" vd.val_attributes with
                  | Some s -> String.starts_with ~prefix:"For tests" (String.trim s)
                  | None -> false);
                users = 0;
              }
              :: !out;
            items modkey hidden rest
        | Tsig_module
            {
              md_name = { txt = Some name; _ };
              md_type =
                {
                  mty_desc =
                    Tmty_functor (_, { mty_desc = Tmty_signature s; _ });
                  _;
                };
              _;
            } ->
            items (modkey @ [ name ]) hidden s.sig_items;
            items modkey hidden rest
        | _ -> items modkey hidden rest)
  in
  items (Cmt_load.split_component i.Cmt_load.intf_modname) false
    i.Cmt_load.signature.sig_items;
  List.rev !out

(* What a module path denotes: a global module (as normalized
   components), a module defined in this file, or something the pass
   cannot follow (a functor parameter, an unpacked first-class module). *)
type target = Global of string list | Local | Unknown

let scan_module ~mark ~mark_own ~mark_all ~unresolved (m : Cmt_load.module_info) =
  let modules = Hashtbl.create 16 and values = Hashtbl.create 64 in
  let rec resolve = function
    | Path.Pident id when Ident.global id ->
        Global (Cmt_load.split_component (Ident.name id))
    | Path.Pident id -> (
        match Hashtbl.find_opt modules (Ident.unique_name id) with
        | Some t -> t
        | None -> Unknown)
    | Path.Pdot (base, s) -> (
        match resolve base with
        | Global c -> Global (c @ Cmt_load.split_component s)
        | t -> t)
    | Path.Papply (f, _) -> resolve f
    | _ -> Unknown
  in
  let rec target me =
    match me.mod_desc with
    | Tmod_ident (p, _) -> resolve p
    | Tmod_apply (f, _, _) | Tmod_apply_unit f -> target f
    | Tmod_constraint (me, _, _, _) -> target me
    | Tmod_structure _ | Tmod_functor _ -> Local
    | Tmod_unpack _ -> Unknown
  in
  let bind id me =
    Option.iter
      (fun id -> Hashtbl.replace modules (Ident.unique_name id) (target me))
      id
  in
  let use_all me =
    match target me with Global c -> mark_all m c | Local | Unknown -> ()
  in
  let structure_item sub si =
    (match si.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            List.iter
              (fun id -> Hashtbl.replace values (Ident.unique_name id) ())
              (pat_bound_idents vb.vb_pat))
          vbs
    | _ -> ());
    Tast_iterator.default_iterator.structure_item sub si
  in
  let module_binding sub mb =
    bind mb.mb_id mb.mb_expr;
    Tast_iterator.default_iterator.module_binding sub mb
  in
  let module_expr sub me =
    (match me.mod_desc with Tmod_apply (_, arg, _) -> use_all arg | _ -> ());
    Tast_iterator.default_iterator.module_expr sub me
  in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _)
      when Hashtbl.mem values (Ident.unique_name id) ->
        mark_own m (Ident.name id)
    | Texp_ident (Path.Pdot (base, name), _, _) -> (
        match resolve base with
        | Global c -> mark m c name
        | Local -> ()
        | Unknown -> incr unresolved)
    | Texp_letmodule (id, _, _, me, _) -> bind id me
    | Texp_pack me -> use_all me
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let iter =
    {
      Tast_iterator.default_iterator with
      structure_item;
      module_binding;
      module_expr;
      expr;
    }
  in
  iter.structure iter m.Cmt_load.structure

let classify e =
  if e.users = 0 then `No_user
  else if e.users = own then `Own_module
  else if e.users land real = 0 then `Test_only
  else `Real

let finding e ~code fmt =
  Printf.ksprintf
    (Finding.make ~pass:"export" ~code ~file:e.file ~line:e.line ~func:e.name)
    fmt

let check interfaces modules =
  let exports = List.concat_map exports_of interfaces in
  let by_key = Hashtbl.create 1024
  and by_module = Hashtbl.create 128
  and by_file = Hashtbl.create 1024 in
  List.iter
    (fun e ->
      Hashtbl.replace by_key e.key e;
      Hashtbl.add by_module e.modkey e;
      Hashtbl.add by_file (e.file, e.name) e)
    exports;
  let use (m : Cmt_load.module_info) e =
    e.users <-
      e.users
      lor
      if e.file = m.Cmt_load.source ^ "i" then own
      else if String.starts_with ~prefix:"test/" m.Cmt_load.source then test
      else real
  in
  let mark m modkey name =
    Option.iter (use m)
      (Hashtbl.find_opt by_key (String.concat "." (modkey @ [ name ])))
  in
  (* A bare identifier bound by a structure-level [let] of the module
     itself, at top level or in a functor body. *)
  let mark_own (m : Cmt_load.module_info) name =
    List.iter (use m) (Hashtbl.find_all by_file (m.Cmt_load.source ^ "i", name))
  in
  let mark_all m modkey = List.iter (use m) (Hashtbl.find_all by_module modkey) in
  let unresolved = ref 0 in
  List.iter (scan_module ~mark ~mark_own ~mark_all ~unresolved) modules;
  let count cls =
    List.length (List.filter (fun e -> classify e = cls) exports)
  in
  let findings =
    List.filter_map
      (fun e ->
        match classify e with
        | `No_user ->
            Some (finding e ~code:"unused-export" "%s has no user" e.key)
        | `Own_module ->
            Some
              (finding e ~code:"private-export"
                 "%s is used only inside its own module; drop it from the \
                  interface"
                 e.key)
        | `Test_only when not e.hidden ->
            Some
              (finding e ~code:"test-only-export"
                 "%s is used only by test/; move it after (**/**) with a doc \
                  comment \"For tests: ...\" saying why, or delete it"
                 e.key)
        | `Test_only when not e.reason ->
            Some
              (finding e ~code:"test-only-export"
                 "%s is used only by test/ and sits after (**/**) without a \
                  doc comment \"For tests: ...\" saying why"
                 e.key)
        | `Test_only | `Real -> None)
      exports
  in
  ( {
      values = List.length exports;
      no_user = count `No_user;
      own_module = count `Own_module;
      test_only = count `Test_only;
      real_users = count `Real;
      unresolved = !unresolved;
    },
    List.sort Finding.compare findings )
