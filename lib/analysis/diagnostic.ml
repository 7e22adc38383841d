type severity = Error | Warning

type t = {
  checker : string;
  code : string;
  severity : severity;
  message : string;
  time : int option;
  cores : int list;
  threads : int list;
  addr : int option;
  subject : string option;
}

let make ~checker ~code ?(severity = Error) ?time ?(cores = []) ?(threads = [])
    ?addr ?subject message =
  { checker; code; severity; message; time; cores; threads; addr; subject }

let is_error t = t.severity = Error

let key t =
  Printf.sprintf "%s/%s/%s/%s" t.checker t.code
    (match t.subject with Some s -> s | None -> "")
    (match t.addr with Some a -> Printf.sprintf "%#x" a | None -> "")

let pp ppf t =
  let sev = match t.severity with Error -> "error" | Warning -> "warning" in
  Format.fprintf ppf "[%s] %s/%s: %s" sev t.checker t.code t.message;
  (match t.time with
  | Some time -> Format.fprintf ppf " (at cycle %d)" time
  | None -> ());
  match t.cores with
  | [] -> ()
  | cores ->
      Format.fprintf ppf " [cores %s]"
        (String.concat "," (List.map string_of_int cores))
