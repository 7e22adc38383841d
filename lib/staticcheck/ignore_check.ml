(* Ignored-result pass: [Stdlib.ignore] applied to an expression of type
   [unit]. Such an ignore discards nothing; it suggests the author
   expected a result (an acquisition status, a count) that the callee
   does not return. Matching the typed application instead of source
   text catches every layout — [ignore] and its argument on separate
   lines, [e |> ignore], [ignore @@ e] — and every callee. *)

open Typedtree

let is_unit (e : expression) =
  match Types.get_desc e.exp_type with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_unit
  | _ -> false

let is_ignore (e : expression) =
  match Expr_scan.callee_path e with
  | Some p -> (
      match List.rev (Cmt_load.path_components p) with
      | "ignore" :: "Stdlib" :: _ -> true
      | _ -> false)
  | None -> false

(* The typechecker already turns [e |> ignore] and [ignore @@ e] into the
   direct application [ignore e], so one match covers all three forms
   (the fixture pins each). *)
let check_module (m : Cmt_load.module_info) =
  let out = ref [] in
  let expr sub (e : expression) =
    (match e.exp_desc with
    | Texp_apply (f, [ (Asttypes.Nolabel, Some a) ])
      when is_ignore f && is_unit a ->
        out :=
          Finding.make ~pass:"ignore" ~code:"ignored-result"
            ~file:m.Cmt_load.source ~line:(Expr_scan.loc_line e) ~func:""
            "ignore of a unit expression: it discards nothing and suggests \
             an expected result that the callee does not return"
          :: !out
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  iter.structure iter m.Cmt_load.structure;
  List.sort Finding.compare !out

let check mods = List.sort Finding.compare (List.concat_map check_module mods)
