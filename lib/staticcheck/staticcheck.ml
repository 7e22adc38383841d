(* Driver: load every .cmt and library .cmti dune produced, run the
   typedtree passes over the library modules, the unused-export pass
   over all of them, plus the missing-interface file check, and render
   the combined report as text or JSON. *)

type report = {
  findings : Finding.t list;
  modules_scanned : int;
  manifest_functions : int;
  listeners_checked : int;
  exports : Export_check.counts;
}

let listener_count mods =
  List.fold_left
    (fun acc (m : Cmt_load.module_info) ->
      let src = m.Cmt_load.source in
      if String.length src >= 8 && String.sub src 0 8 = "lib/obs/" then
        acc + List.length (Effect_check.listeners m)
      else acc)
    0 mods

(* The typedtree passes over [mods], merged with the export pass's
   counts and findings and any file findings. *)
let report ?manifest ?allowlist mods (exports, export_findings) extra =
  let findings =
    Alloc_check.check ?manifest mods
    @ Effect_check.check mods
    @ Lock_check.check mods
    @ Raw_use.check ?allowlist mods
    @ Ignore_check.check mods
    @ export_findings @ extra
  in
  {
    findings = List.sort_uniq Finding.compare findings;
    modules_scanned = List.length mods;
    manifest_functions =
      Manifest.total_functions
        (match manifest with Some m -> m | None -> Manifest.default);
    listeners_checked = listener_count mods;
    exports;
  }

let no_exports =
  {
    Export_check.values = 0;
    no_user = 0;
    own_module = 0;
    test_only = 0;
    real_users = 0;
    unresolved = 0;
  }

let run_on_modules ?manifest ?allowlist mods =
  report ?manifest ?allowlist mods (no_exports, []) []

(* Every library module under [root/lib] has an interface file;
   [*_intf.ml] module-type-only files are exempt. Build and hidden
   directories are skipped. *)
let rec ml_files ~root rel acc =
  match Sys.readdir (Filename.concat root rel) with
  | exception Sys_error _ -> acc
  | entries ->
      Array.sort compare entries;
      Array.fold_left
        (fun acc entry ->
          let rel = Filename.concat rel entry in
          if entry.[0] = '.' || entry.[0] = '_' then acc
          else if Sys.is_directory (Filename.concat root rel) then
            ml_files ~root rel acc
          else if Filename.check_suffix entry ".ml" then rel :: acc
          else acc)
        acc entries

let missing_mli ~root =
  List.filter_map
    (fun rel ->
      if
        Filename.check_suffix rel "_intf.ml"
        || Sys.file_exists (Filename.concat root rel ^ "i")
      then None
      else
        Some
          (Finding.make ~pass:"file" ~code:"missing-mli" ~file:rel ~line:1
             ~func:"" "library module without an interface file (.mli)"))
    (List.rev (ml_files ~root "lib" []))

let run ?build_dir ?manifest ?allowlist ~root () =
  match Cmt_load.load_tree ?build_dir ~root () with
  | Error e -> Error e
  | Ok { Cmt_load.modules; interfaces } ->
      Ok
        (report ?manifest ?allowlist
           (List.filter
              (fun m -> String.starts_with ~prefix:"lib/" m.Cmt_load.source)
              modules)
           (Export_check.check interfaces modules)
           (missing_mli ~root))

let pp_report ppf r =
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp f) r.findings;
  let e = r.exports in
  Format.fprintf ppf
    "o2staticcheck: %d finding%s (%d modules, %d manifest functions, %d \
     listeners; %d exported values: %d no user, %d own module only, %d \
     test only, %d real users; %d unresolved paths)@."
    (List.length r.findings)
    (if List.length r.findings = 1 then "" else "s")
    r.modules_scanned r.manifest_functions r.listeners_checked
    e.Export_check.values e.no_user e.own_module e.test_only e.real_users
    e.unresolved

let report_to_json r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"findings\": [";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n    ";
      Buffer.add_string buf (Finding.to_json f))
    r.findings;
  if r.findings <> [] then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "],\n";
  let e = r.exports in
  Buffer.add_string buf
    (Printf.sprintf
       "  \"modules_scanned\": %d,\n  \"manifest_functions\": %d,\n  \
        \"listeners_checked\": %d,\n  \"exports\": {\"values\": %d, \
        \"no_user\": %d, \"own_module_only\": %d, \"test_only\": %d, \
        \"real_users\": %d, \"unresolved_paths\": %d},\n  \"total\": %d\n}\n"
       r.modules_scanned r.manifest_functions r.listeners_checked
       e.Export_check.values e.no_user e.own_module e.test_only e.real_users
       e.unresolved (List.length r.findings));
  Buffer.contents buf
