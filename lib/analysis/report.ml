type t = {
  limit : int;
  seen : (string, unit) Hashtbl.t;
  mutable diags : Diagnostic.t list;  (* reverse insertion order *)
  mutable count : int;
  mutable errors : int;
  mutable dropped : int;
}

let create ?(limit = 200) () =
  {
    limit;
    seen = Hashtbl.create 64;
    diags = [];
    count = 0;
    errors = 0;
    dropped = 0;
  }

let add t d =
  let k = Diagnostic.key d in
  if not (Hashtbl.mem t.seen k) then begin
    Hashtbl.add t.seen k ();
    if t.count >= t.limit then t.dropped <- t.dropped + 1
    else begin
      t.diags <- d :: t.diags;
      t.count <- t.count + 1;
      if Diagnostic.is_error d then t.errors <- t.errors + 1
    end
  end

let diagnostics t = List.rev t.diags
let count t = t.count
let dropped t = t.dropped
let is_clean t = t.count = 0 && t.dropped = 0

let pp ppf t =
  List.iter (fun d -> Format.fprintf ppf "%a@." Diagnostic.pp d) (diagnostics t);
  if t.dropped > 0 then
    Format.fprintf ppf "... and %d further distinct diagnostics dropped@."
      t.dropped;
  if is_clean t then Format.fprintf ppf "no diagnostics@."
  else Format.fprintf ppf "%d diagnostics (%d errors)@." t.count t.errors
