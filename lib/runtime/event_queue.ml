(* The heap is three parallel arrays — times, seqs, payloads — instead of
   one array of records, so [push]/[pop_min] move plain ints and never
   allocate. (A true single-array packing of [time * seq] into one int is
   not safe: times are unbounded cycle counts and seqs are unbounded
   insertion counters, so their product can exceed 63 bits.)

   A popped payload stays in [payloads] until its slot is overwritten; for
   the engine's small event payloads that retention is harmless. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { times = [||]; seqs = [||]; payloads = [||]; size = 0; next_seq = 0 }

let length t = t.size
let is_empty t = t.size = 0

let before t i j =
  t.times.(i) < t.times.(j)
  || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

(* Whether the entry at [i] comes before the key [(time, seq)]. Seqs are
   unique, so when it does not, the key comes first. *)
let entry_before t i time seq =
  t.times.(i) < time || (t.times.(i) = time && t.seqs.(i) < seq)

let move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.payloads.(dst) <- t.payloads.(src)

let set t i time seq payload =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.payloads.(i) <- payload

(* Both sifts move a hole instead of swapping: the entries on the path
   shift one level into it, and the entry being placed is written once,
   where it lands. A swap writes each payload slot on the path twice,
   and every payload write is a [caml_modify]. *)
let rec sift_up t i time seq payload =
  let parent = (i - 1) / 2 in
  if i > 0 && not (entry_before t parent time seq) then begin
    move t ~src:parent ~dst:i;
    sift_up t parent time seq payload
  end
  else set t i time seq payload

let rec sift_down t i time seq payload =
  let l = (2 * i) + 1 in
  if l >= t.size then set t i time seq payload
  else begin
    let r = l + 1 in
    let c = if r < t.size && before t r l then r else l in
    if entry_before t c time seq then begin
      move t ~src:c ~dst:i;
      sift_down t c time seq payload
    end
    else set t i time seq payload
  end

let grow t payload =
  let cap = max 64 (2 * t.size) in
  let times = Array.make cap 0 in
  let seqs = Array.make cap 0 in
  let payloads = Array.make cap payload in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.payloads 0 payloads 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads

let push t ~time payload =
  if time < 0 then invalid_arg "Event_queue.push: negative time";
  if t.size = Array.length t.times then grow t payload;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) time seq payload

let min_time t =
  if t.size = 0 then invalid_arg "Event_queue.min_time: empty queue";
  t.times.(0)

let pop_min t =
  if t.size = 0 then invalid_arg "Event_queue.pop_min: empty queue";
  let top = t.payloads.(0) in
  t.size <- t.size - 1;
  let n = t.size in
  if n > 0 then sift_down t 0 t.times.(n) t.seqs.(n) t.payloads.(n);
  top

let pop t =
  if t.size = 0 then None
  else
    let time = t.times.(0) in
    let payload = pop_min t in
    Some (time, payload)

let peek_time t = if t.size = 0 then None else Some t.times.(0)

let clear t =
  t.size <- 0;
  t.times <- [||];
  t.seqs <- [||];
  t.payloads <- [||]

let check_heap_property t =
  let ok = ref true in
  for i = 1 to t.size - 1 do
    if before t i ((i - 1) / 2) then ok := false
  done;
  !ok
