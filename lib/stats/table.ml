type align = Left | Right

type t = {
  headers : string list;
  aligns : align list;
  mutable rows_rev : string list list;
}

let create ~columns =
  if columns = [] then invalid_arg "Table.create: no columns";
  { headers = List.map fst columns; aligns = List.map snd columns; rows_rev = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: wrong number of cells";
  t.rows_rev <- cells :: t.rows_rev

let rows t = List.length t.rows_rev

let render t =
  let rows = List.rev t.rows_rev in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w cells -> max w (String.length (List.nth cells i)))
          (String.length h) rows)
      t.headers
  in
  let pad align width s =
    let gap = width - String.length s in
    if gap <= 0 then s
    else
      match align with
      | Left -> s ^ String.make gap ' '
      | Right -> String.make gap ' ' ^ s
  in
  let buf = Buffer.create 1024 in
  let emit_cells cells =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad (List.nth t.aligns i) (List.nth widths i) cell))
      cells;
    Buffer.add_char buf '\n'
  in
  let rule () =
    List.iteri
      (fun i w ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (String.make w '-'))
      widths;
    Buffer.add_char buf '\n'
  in
  emit_cells t.headers;
  rule ();
  List.iter emit_cells rows;
  Buffer.contents buf
