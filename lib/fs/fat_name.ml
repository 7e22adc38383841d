let bad_chars = "\"*+,/:;<=>?[\\]| "

let valid_char c =
  let code = Char.code c in
  code > 0x20 && code < 0x7F && not (String.contains bad_chars c)

let to_83 name =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  match String.index_opt name '.' with
  | Some 0 -> fail "name starts with a dot: %S" name
  | _ when name = "" -> fail "empty name"
  | idx -> (
      let base, ext =
        match idx with
        | None -> (name, "")
        | Some i ->
            (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
      in
      if String.contains ext '.' then fail "multiple dots: %S" name
      else if base = "" || String.length base > 8 then
        fail "base part must be 1..8 chars: %S" name
      else if String.length ext > 3 then fail "extension over 3 chars: %S" name
      else
        let up = String.uppercase_ascii in
        let base = up base and ext = up ext in
        match String.for_all valid_char base && String.for_all valid_char ext with
        | false -> fail "invalid character in %S" name
        | true ->
            let pad s n = s ^ String.make (n - String.length s) ' ' in
            Ok (pad base 8 ^ pad ext 3))

let to_83_exn name =
  match to_83 name with Ok s -> s | Error e -> invalid_arg ("Fat_name: " ^ e)

let of_83 s =
  if String.length s <> 11 then invalid_arg "Fat_name.of_83: not 11 bytes";
  let strip part = String.trim part in
  let base = strip (String.sub s 0 8) and ext = strip (String.sub s 8 3) in
  let low = String.lowercase_ascii in
  if ext = "" then low base else low base ^ "." ^ low ext

let equal a b =
  match (to_83 a, to_83 b) with Ok x, Ok y -> x = y | _ -> false
