type op = Get of int | Put of int * int | Delete of int

(* xorshift64*, truncated to OCaml's 63-bit int. Self-contained so the
   native library stays independent of lib/workload's Rng. *)
type rng = { mutable s : int }

let make_rng seed = { s = (if seed = 0 then 0x2545F4914F6CDD1D else seed) }

let next r =
  let s = r.s in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  r.s <- s;
  s land max_int

let below r bound = next r mod bound

(* Ops are immutable, so one program shares a block per distinct value:
   [Get]/[Delete] over the client's own keys and the [(dir, key)] pairs
   come from per-call tables, filled on first draw. Every array starts
   from a static constant ([unset_op], [unset_pair]): a fresh block as the
   initial value of an array longer than 256 words makes [Array.make]
   (and so [Array.init]) force a minor collection. The draws are
   sequenced with explicit [let]s; the output depends on their order. *)
let unset_op = Delete (-1)
let unset_pair = (-1, -1)

let kv_program ~clients ~client ~ops ~keyspace ~seed =
  if clients <= 0 || ops < 0 then
    invalid_arg
      "Op_program.kv_program: clients must be positive and ops non-negative";
  if client < 0 || client >= clients then
    invalid_arg "Op_program.kv_program: client out of range";
  if keyspace < clients then
    invalid_arg "Op_program.kv_program: keyspace must cover every client";
  let r = make_rng (seed + (0x1000 * client) + 1) in
  let own_keys = (keyspace - client + clients - 1) / clients in
  let key j = client + (clients * j) in
  let gets = Array.make own_keys unset_op in
  let deletes = Array.make own_keys unset_op in
  let prog = Array.make ops unset_op in
  for i = 0 to ops - 1 do
    let roll = below r 100 in
    if roll < 60 then begin
      let j = below r own_keys in
      if gets.(j) == unset_op then gets.(j) <- Get (key j);
      prog.(i) <- gets.(j)
    end
    else if roll < 90 then begin
      let value = below r 1_000_000 in
      let j = below r own_keys in
      prog.(i) <- Put (key j, value)
    end
    else begin
      let j = below r own_keys in
      if deletes.(j) == unset_op then deletes.(j) <- Delete (key j);
      prog.(i) <- deletes.(j)
    end
  done;
  prog

let kv_result op ~raw = match op with Get _ -> raw + 1 | _ -> raw

let dir_program ~dirs ~entries_per_dir ~ops ~seed =
  if dirs <= 0 || entries_per_dir <= 0 || ops < 0 then
    invalid_arg
      "Op_program.dir_program: dirs and entries_per_dir must be positive and \
       ops non-negative";
  let r = make_rng (seed + 0x5eed) in
  let keys = entries_per_dir + 4 in
  let pairs = Array.make (dirs * keys) unset_pair in
  let prog = Array.make ops unset_pair in
  for i = 0 to ops - 1 do
    let key = below r keys in
    let dir = below r dirs in
    let slot = (dir * keys) + key in
    let pair = pairs.(slot) in
    prog.(i) <-
      (if pair != unset_pair then pair
       else begin
         let pair = (dir, key) in
         pairs.(slot) <- pair;
         pair
       end)
  done;
  prog

let max_bucket_load ~buckets ~keyspace =
  if buckets <= 0 || keyspace <= 0 then
    invalid_arg "Op_program.max_bucket_load: counts must be positive";
  let load = Array.make buckets 0 in
  for key = 0 to keyspace - 1 do
    let h = key * 0x2545F491 land max_int in
    let b = h mod buckets in
    load.(b) <- load.(b) + 1
  done;
  Array.fold_left Int.max 0 load
