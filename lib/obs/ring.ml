type 'a t = {
  buf : 'a option array;
  mutable head : int;  (* next write position *)
  mutable len : int;
  mutable total : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Ring.create: negative capacity";
  { buf = Array.make capacity None; head = 0; len = 0; total = 0 }

let length t = t.len
let total t = t.total
let dropped t = t.total - t.len

let push t x =
  t.total <- t.total + 1;
  let cap = Array.length t.buf in
  if cap > 0 then begin
    t.buf.(t.head) <- Some x;
    t.head <- (t.head + 1) mod cap;
    if t.len < cap then t.len <- t.len + 1
  end

let iter t f =
  let cap = Array.length t.buf in
  if t.len > 0 then
    let start = (t.head - t.len + cap) mod cap in
    for i = 0 to t.len - 1 do
      match t.buf.((start + i) mod cap) with
      | Some x -> f x
      | None -> assert false
    done

let to_list t =
  let acc = ref [] in
  iter t (fun x -> acc := x :: !acc);
  List.rev !acc

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) None;
  t.head <- 0;
  t.len <- 0;
  t.total <- 0
