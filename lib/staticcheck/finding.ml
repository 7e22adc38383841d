type t = {
  pass : string;  (* "alloc" | "effect" | "lock" | "raw" | "ignore" | "export" | "file" *)
  code : string;
  file : string;
  line : int;
  func : string;  (* enclosing function, "" when not applicable *)
  message : string;
}

let make ~pass ~code ~file ~line ~func message =
  { pass; code; file; line; func; message }

let compare a b =
  let c = Stdlib.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.line b.line in
    if c <> 0 then c else Stdlib.compare (a.pass, a.code) (b.pass, b.code)

let pp ppf f =
  Format.fprintf ppf "%s:%d: [%s/%s]%s %s" f.file f.line f.pass f.code
    (if f.func = "" then "" else Printf.sprintf " in %s:" f.func)
    f.message

(* Minimal JSON string escaping: the fields we emit are paths, identifiers
   and prose produced by this library, but a fixture path could still
   contain a quote or backslash. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json f =
  Printf.sprintf
    {|{"pass":"%s","code":"%s","file":"%s","line":%d,"function":"%s","message":"%s"}|}
    (json_escape f.pass) (json_escape f.code) (json_escape f.file) f.line
    (json_escape f.func) (json_escape f.message)
