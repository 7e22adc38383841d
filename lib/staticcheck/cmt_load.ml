(* Loading dune's .cmt files and the small bits of compiler-libs plumbing
   every pass needs: normalized path names, top-level binding maps, and
   the [@alloc_ok] escape-hatch attribute. *)

type module_info = {
  cmt_path : string;
  modname : string;  (* e.g. "O2_runtime__Event_queue" *)
  short : string;  (* e.g. "Event_queue" *)
  source : string;  (* e.g. "lib/runtime/event_queue.ml" *)
  structure : Typedtree.structure;
}

(* Dune's wrapping compiles Event_queue as O2_runtime__Event_queue; the
   short name is what manifests and messages use. The separator is the
   last "__" followed by a regular character — module names themselves
   may contain single underscores (Object_table, Fat_dir). *)
let short_of_modname m =
  let n = String.length m in
  let rec last_sep i best =
    if i >= n - 1 then best
    else if m.[i] = '_' && m.[i + 1] = '_' && i + 2 < n && m.[i + 2] <> '_'
    then last_sep (i + 1) (Some (i + 2))
    else last_sep (i + 1) best
  in
  match last_sep 0 None with
  | Some j -> String.sub m j (n - j)
  | None -> m

type interface_info = {
  intf_modname : string;
  intf_source : string;  (* e.g. "lib/runtime/hist.mli" *)
  signature : Typedtree.signature;
}

type tree = {
  modules : module_info list;
  interfaces : interface_info list;
}

let read cmt_path =
  match Cmt_format.read_cmt cmt_path with
  | exception _ -> None
  | infos ->
      Some
        ( infos,
          Option.value infos.Cmt_format.cmt_sourcefile ~default:cmt_path )

let load cmt_path =
  match read cmt_path with
  | Some (({ Cmt_format.cmt_annots = Implementation structure; _ } as infos), source) ->
      Some
        {
          cmt_path;
          modname = infos.Cmt_format.cmt_modname;
          short = short_of_modname infos.Cmt_format.cmt_modname;
          source;
          structure;
        }
  | _ -> None

let load_interface cmti_path =
  match read cmti_path with
  | Some (({ Cmt_format.cmt_annots = Interface signature; _ } as infos), source) ->
      Some { intf_modname = infos.Cmt_format.cmt_modname; intf_source = source; signature }
  | _ -> None

(* Walk [dir] for .cmt and .cmti files, skipping VCS directories. *)
let discover dir =
  let acc = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
        Array.sort compare entries;
        Array.iter
          (fun entry ->
            let path = Filename.concat dir entry in
            if Sys.is_directory path then begin
              if entry <> ".git" then walk path
            end
            else if
              Filename.check_suffix entry ".cmt"
              || Filename.check_suffix entry ".cmti"
            then acc := path :: !acc)
          entries
  in
  if Sys.file_exists dir && Sys.is_directory dir then walk dir;
  List.rev !acc

(* Candidate build roots for cmt discovery, in preference order: an
   explicit dir, the root itself (a build tree, where the .objs
   directories sit alongside lib/), and _build/default under a source
   root. Only locations under [root] are probed: a typo'd root must
   error, not silently scan whatever tree the cwd happens to hold. *)
let find_build_root ?build_dir ~root () =
  let has_objs dir =
    Sys.file_exists (Filename.concat dir "lib")
    && List.exists
         (fun sub ->
           let d = Filename.concat (Filename.concat dir "lib") sub in
           Sys.file_exists d && Sys.is_directory d
           && Array.exists
                (fun e -> String.length e > 5 && Filename.check_suffix e ".objs")
                (try Sys.readdir d with Sys_error _ -> [||]))
         (try
            Array.to_list (Sys.readdir (Filename.concat dir "lib"))
          with Sys_error _ -> [])
  in
  let candidates =
    (match build_dir with Some d -> [ d ] | None -> [])
    @ [ root; Filename.concat root "_build/default" ]
  in
  List.find_opt has_objs candidates

(* The directories whose code counts as a user of a library export. The
   staticcheck fixtures are deliberately wrong code, not users. *)
let user_dirs = [ "lib"; "bin"; "perfbench"; "examples"; "test" ]

let load_tree ?build_dir ~root () =
  match find_build_root ?build_dir ~root () with
  | None -> Error "no build tree with .cmt files found (run `dune build @check`)"
  | Some broot ->
      let seen = Hashtbl.create 256 in
      let fresh source =
        (not (Hashtbl.mem seen source))
        && (Hashtbl.add seen source ();
            true)
      in
      let modules = ref [] and interfaces = ref [] in
      List.iter
        (fun dir ->
          List.iter
            (fun p ->
              if Filename.check_suffix p ".cmti" then begin
                match load_interface p with
                | Some i when dir = "lib" && fresh i.intf_source ->
                    interfaces := i :: !interfaces
                | _ -> ()
              end
              else
                match load p with
                | Some m
                  when String.starts_with ~prefix:(dir ^ "/") m.source
                       && (not (String.starts_with ~prefix:"test/fixtures/" m.source))
                       && fresh m.source ->
                    modules := m :: !modules
                | _ -> ())
            (discover (Filename.concat broot dir)))
        user_dirs;
      if not (List.exists (fun m -> String.starts_with ~prefix:"lib/" m.source) !modules)
      then Error ("no library .cmt files under " ^ broot)
      else Ok { modules = List.rev !modules; interfaces = List.rev !interfaces }

(* ------------------------------------------------------------------ *)
(* Path normalization                                                  *)

(* "O2_runtime__Api.read" -> ["O2_runtime"; "Api"; "read"]. A trailing
   "__" is dropped: "Coretime__" is dune's alias module for a library
   whose main module is Coretime, so "Coretime__.Policy" is
   ["Coretime"; "Policy"] as "Coretime.Policy" is. *)
let split_component s =
  let parts = ref [] in
  let n = String.length s in
  let n = if n > 2 && String.ends_with ~suffix:"__" s then n - 2 else n in
  let start = ref 0 in
  let i = ref 0 in
  while !i < n - 1 do
    if s.[!i] = '_' && s.[!i + 1] = '_' && !i + 2 < n && s.[!i + 2] <> '_' then begin
      if !i > !start then parts := String.sub s !start (!i - !start) :: !parts;
      start := !i + 2;
      i := !i + 2
    end
    else incr i
  done;
  if !start < n then parts := String.sub s !start (n - !start) :: !parts;
  List.rev !parts

let rec path_components p =
  match p with
  | Path.Pident id -> split_component (Ident.name id)
  | Path.Pdot (base, s) -> path_components base @ split_component s
  | Path.Papply (a, b) -> path_components a @ path_components b
  | _ -> []

let path_name p = String.concat "." (path_components p)

(* The last [k] components, joined — handy for suffix matching that is
   robust to wrapping prefixes and open/alias differences. *)
let path_tail ~k p =
  let comps = path_components p in
  let n = List.length comps in
  let rec drop i = function
    | l when i <= 0 -> l
    | _ :: tl -> drop (i - 1) tl
    | [] -> []
  in
  String.concat "." (drop (n - k) comps)

(* Does the path denote [Mod.fn] (possibly nested under wrappers)? *)
let path_is ~modname ~fn p = path_tail ~k:2 p = modname ^ "." ^ fn

(* ------------------------------------------------------------------ *)
(* Attributes                                                          *)

let attr_payload_string (a : Parsetree.attribute) =
  match a.Parsetree.attr_payload with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                _ );
          _;
        };
      ] ->
      Some s
  | _ -> None

let find_attr name (attrs : Parsetree.attributes) =
  List.find_opt (fun a -> a.Parsetree.attr_name.Location.txt = name) attrs

let has_attr name attrs = find_attr name attrs <> None

let attr_reason name attrs =
  match find_attr name attrs with
  | None -> None
  | Some a -> ( match attr_payload_string a with Some s -> Some s | None -> Some "")

(* ------------------------------------------------------------------ *)
(* Top-level structure bindings                                        *)

(* Map from top-level value name to its binding, for manifest lookup and
   same-module transitive analysis. Multiple bindings of the same name
   keep the last one (what the rest of the module sees). Bindings in the
   body of a functor or submodule defined in the file are included too,
   under their bare names, unless the top level binds the same name: a
   program written against a backend signature keeps its op bodies in
   its functor. *)
let top_bindings (str : Typedtree.structure) =
  let tbl = Hashtbl.create 64 and nested = Hashtbl.create 16 in
  let rec items into (str : Typedtree.structure) =
    List.iter
      (fun item ->
        match item.Typedtree.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match vb.Typedtree.vb_pat.Typedtree.pat_desc with
                | Typedtree.Tpat_var (id, _) ->
                    Hashtbl.replace into (Ident.name id) vb
                | _ -> ())
              vbs
        | Typedtree.Tstr_module mb -> mod_expr mb.Typedtree.mb_expr
        | _ -> ())
      str.Typedtree.str_items
  and mod_expr (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_structure s -> items nested s
    | Typedtree.Tmod_functor (_, body) -> mod_expr body
    | Typedtree.Tmod_constraint (me, _, _, _) -> mod_expr me
    | _ -> ()
  in
  items tbl str;
  Hashtbl.iter
    (fun name vb -> if not (Hashtbl.mem tbl name) then Hashtbl.add tbl name vb)
    nested;
  tbl

(* Idents bound at the structure's top level, keyed by [Ident.unique_name]
   (name + stamp) so that locals shadowing a top-level name are not
   confused with it. A nested closure whose free variables are all
   top-level (or from other modules) is a constant closure, statically
   allocated by the native compiler. *)
let top_ident_stamps (str : Typedtree.structure) =
  let set = Hashtbl.create 64 in
  let rec pat_idents : Typedtree.pattern -> unit =
   fun p ->
    match p.Typedtree.pat_desc with
    | Typedtree.Tpat_var (id, _) ->
        Hashtbl.replace set (Ident.unique_name id) ()
    | Typedtree.Tpat_alias (q, id, _) ->
        Hashtbl.replace set (Ident.unique_name id) ();
        pat_idents q
    | Typedtree.Tpat_tuple ps -> List.iter pat_idents ps
    | _ -> ()
  in
  let rec items (str : Typedtree.structure) =
    List.iter
      (fun item ->
        match item.Typedtree.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
            List.iter (fun vb -> pat_idents vb.Typedtree.vb_pat) vbs
        | Typedtree.Tstr_primitive vd ->
            Hashtbl.replace set (Ident.unique_name vd.Typedtree.val_id) ()
        | Typedtree.Tstr_module mb -> mod_expr mb.Typedtree.mb_expr
        | Typedtree.Tstr_recmodule mbs ->
            List.iter (fun mb -> mod_expr mb.Typedtree.mb_expr) mbs
        | _ -> ())
      str.Typedtree.str_items
  and mod_expr (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_structure s -> items s
    | Typedtree.Tmod_constraint (me, _, _, _) -> mod_expr me
    | _ -> ()
  in
  items str;
  set
