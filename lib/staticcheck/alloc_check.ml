(* Allocation pass: every function named in the hot-path manifest is
   scanned for allocating constructs in its own body. Raising applications
   (error paths) are excluded, and an [@alloc_ok "reason"] attribute on an
   expression or on the whole binding suppresses the check for that
   subtree — the reason string is the reviewer's contract.

   The same walk flags [poly-compare]: a use of [Stdlib.min], [Stdlib.max]
   or [Stdlib.compare]. Without flambda these are ordinary polymorphic
   functions, so even at type [int] each call runs [caml_greaterequal]
   and [compare_val]; [Int.max]/[Int.min] and the int-typed [<]/[>=]
   compile to one machine compare and are not flagged. Matching resolved
   paths catches [max] and [Stdlib.max] alike, applied or passed as an
   argument. [@alloc_ok] and raising applications do not suppress it.

   A call to a C external that is not [@@noalloc] is [alloc-extcall]. *)

open Typedtree

type ctx = {
  file : string;
  func : string;
  tops : (string, unit) Hashtbl.t;
  out : Finding.t list ref;
}

let add ctx ~code ~line msg =
  ctx.out :=
    Finding.make ~pass:"alloc" ~code ~file:ctx.file ~line ~func:ctx.func msg
    :: !(ctx.out)

let is_raising_apply (e : expression) =
  match e.exp_desc with
  | Texp_apply (f, _) -> (
      match Expr_scan.callee_path f with
      | Some p -> Expr_scan.is_raising_path p
      | None -> false)
  | _ -> false

let is_poly_compare p =
  match List.rev (Cmt_load.path_components p) with
  | [ fn; "Stdlib" ] -> List.mem fn [ "min"; "max"; "compare" ]
  | _ -> false

let poly_compare ctx (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) when is_poly_compare p ->
      add ctx ~code:"poly-compare" ~line:(Expr_scan.loc_line e)
        (Printf.sprintf
           "polymorphic %s on a hot path: use Int.max/Int.min or int-typed \
            < and >="
           (Cmt_load.path_tail ~k:2 p))
  | _ -> ()

(* [alloc-extcall]: an application of a C external (a primitive whose
   name has no [%]) not declared [@@noalloc]. Such a call may allocate
   on the OCaml heap, and the typedtree cannot see inside it; a
   [@@noalloc] stub has promised not to. *)
let extcall ctx (e : expression) =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, vd); _ }, _) -> (
      match vd.Types.val_kind with
      | Types.Val_prim prim
        when prim.Primitive.prim_alloc
             && not (String.starts_with ~prefix:"%" prim.Primitive.prim_name)
        ->
          add ctx ~code:"alloc-extcall" ~line:(Expr_scan.loc_line e)
            (Printf.sprintf "C external %s (%s) is not [@@noalloc]"
               (Cmt_load.path_tail ~k:2 p) prim.Primitive.prim_name)
      | _ -> ())
  | _ -> ()

(* The poly-compare check alone, for subtrees the allocation check skips. *)
let compares_only ctx =
  let expr sub e =
    poly_compare ctx e;
    Tast_iterator.default_iterator.expr sub e
  in
  { Tast_iterator.default_iterator with expr }

(* Walk the body; report each allocating node; skip [@alloc_ok] subtrees
   and raising applications wholesale. A curried chain
   [fun a -> fun b -> body] compiles to one n-ary function, so only the
   head of the chain is judged as a closure — the inner [fun]s would
   otherwise spuriously "capture" the outer parameters. *)
let scan ctx root =
  let compares = compares_only ctx in
  let rec expr sub (e : expression) =
    if Cmt_load.has_attr "alloc_ok" e.exp_attributes || is_raising_apply e
    then compares.expr compares e
    else begin
      poly_compare ctx e;
      extcall ctx e;
      (match Expr_scan.alloc_of_node ~top_idents:ctx.tops e with
      | Some (code, what) -> add ctx ~code ~line:(Expr_scan.loc_line e) what
      | None -> ());
      match e.exp_desc with
      | Texp_function { cases; _ } ->
          List.iter
            (fun c ->
              (match c.c_guard with Some g -> expr sub g | None -> ());
              descend_chain sub c.c_rhs)
            cases
      | _ -> Tast_iterator.default_iterator.expr sub e
    end
  and descend_chain sub (e : expression) =
    match e.exp_desc with
    | Texp_function { cases; _ }
      when not (Cmt_load.has_attr "alloc_ok" e.exp_attributes) ->
        List.iter
          (fun c ->
            (match c.c_guard with Some g -> expr sub g | None -> ());
            descend_chain sub c.c_rhs)
          cases
    | _ -> expr sub e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  (* The binding's own closure is built once, where it is defined, not
     per call: judge only what its body builds. That matters in a
     functor, whose functions capture the functor's other values. *)
  descend_chain iter root

(* Float boxing: a float produced by arithmetic in tail position must be
   boxed to be returned. Narrow by construction — only flags arithmetic
   primitives whose fresh float escapes, not loads of already-boxed
   floats. *)
let float_arith_prims =
  [ "%addfloat"; "%subfloat"; "%mulfloat"; "%divfloat"; "%negfloat";
    "%absfloat" ]

let rec tail_exprs (e : expression) acc =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      List.fold_left (fun acc c -> tail_exprs c.c_rhs acc) acc cases
  | Texp_let (_, _, b) -> tail_exprs b acc
  | Texp_sequence (_, b) -> tail_exprs b acc
  | Texp_ifthenelse (_, t, Some f) -> tail_exprs t (tail_exprs f acc)
  | Texp_ifthenelse (_, t, None) -> tail_exprs t acc
  | Texp_match (_, cases, _) ->
      List.fold_left (fun acc c -> tail_exprs c.c_rhs acc) acc cases
  | Texp_try (b, cases) ->
      List.fold_left (fun acc c -> tail_exprs c.c_rhs acc) (tail_exprs b acc)
        cases
  | _ -> e :: acc

let check_float_tails ctx body =
  List.iter
    (fun (e : expression) ->
      if not (Cmt_load.has_attr "alloc_ok" e.exp_attributes) then
        match e.exp_desc with
        | Texp_apply (f, _) when Expr_scan.is_float_type e -> (
            match f.exp_desc with
            | Texp_ident (_, _, vd) -> (
                match Expr_scan.prim_name vd with
                | Some pn when List.mem pn float_arith_prims ->
                    add ctx ~code:"alloc-floatbox" ~line:(Expr_scan.loc_line e)
                      "fresh float escapes boxed from tail position"
                | _ -> ())
            | _ -> ())
        | _ -> ())
    (tail_exprs body [])

let check_module ?(manifest = Manifest.default) (m : Cmt_load.module_info) =
  let fns = Manifest.functions_for manifest ~module_:m.Cmt_load.short in
  if fns = [] then []
  else begin
    let bindings = Cmt_load.top_bindings m.Cmt_load.structure in
    let tops = Cmt_load.top_ident_stamps m.Cmt_load.structure in
    let out = ref [] in
    List.iter
      (fun fn ->
        match Hashtbl.find_opt bindings fn with
        | None ->
            out :=
              Finding.make ~pass:"alloc" ~code:"manifest-missing"
                ~file:m.Cmt_load.source ~line:0 ~func:fn
                (Printf.sprintf
                   "manifest names %s.%s but no such top-level function exists"
                   m.Cmt_load.short fn)
              :: !out
        | Some vb ->
            let file =
              let f = Expr_scan.loc_file vb.vb_expr in
              if f = "" then m.Cmt_load.source else f
            in
            let ctx = { file; func = fn; tops; out } in
            if Cmt_load.has_attr "alloc_ok" vb.vb_attributes then begin
              let compares = compares_only ctx in
              compares.expr compares vb.vb_expr
            end
            else begin
              scan ctx vb.vb_expr;
              check_float_tails ctx vb.vb_expr
            end)
      fns;
    List.sort Finding.compare !out
  end

let check ?manifest mods =
  List.sort Finding.compare
    (List.concat_map (check_module ?manifest) mods)
