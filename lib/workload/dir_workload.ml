open O2_fs

type spec = {
  dirs : int;
  entries_per_dir : int;
  cluster_bytes : int;
  compare_cycles : int;
  think_cycles : int;
  dir_dist : [ `Uniform | `Zipf of float ];
  shuffle_popularity : bool;
  use_locks : bool;
  seed : int;
}

let default_spec =
  {
    dirs = 64;
    entries_per_dir = 1000;
    cluster_bytes = 4096;
    compare_cycles = 2;
    think_cycles = 100;
    dir_dist = `Uniform;
    shuffle_popularity = false;
    use_locks = true;
    seed = 42;
  }

let dir_bytes_of spec =
  (* a directory's chain: entry bytes rounded up to whole clusters *)
  let content = spec.entries_per_dir * Fat_types.entry_bytes in
  (content + spec.cluster_bytes - 1) / spec.cluster_bytes * spec.cluster_bytes

let data_kb spec = spec.dirs * dir_bytes_of spec / 1024

let spec_for_data_kb ?(entries_per_dir = 1000) ?(seed = 42) ~kb () =
  let per_dir = dir_bytes_of { default_spec with entries_per_dir } / 1024 in
  let dirs = max 1 ((kb + (per_dir / 2)) / per_dir) in
  { default_spec with dirs; entries_per_dir; seed }

type t = {
  ct : Coretime.t;
  fs_ : Fat.t;
  spec_ : spec;
  dirs_ : Fat.dir array;
  objs_ : Coretime.Object_table.obj array;
  dir_addr : int array;  (* first-cluster address: the ct_start argument *)
  file_names83 : string array;  (* shared: every dir has the same names *)
  perm : int array;  (* popularity rank -> directory index *)
  zipf_ : Dist.t option;  (* built once here: no global cache, so cells of
                             a parallel sweep share no mutable state *)
  mutable active_ : int;
  mutable next_seed : int;
}

(* The 8.3 name of "f<k>.dat", written directly: 'F', the digits of [k],
   spaces up to the 8-byte base, then "DAT". *)
let file_name83 k =
  let rec last_digit v i = if v < 10 then i else last_digit (v / 10) (i + 1) in
  let last = last_digit k 1 in
  if k < 0 || last > 7 then
    invalid_arg "Dir_workload.file_name83: f<k>.dat has no 8.3 name";
  let b = Bytes.make 11 ' ' in
  Bytes.set b 0 'F';
  let rec put v i =
    Bytes.set b i (Char.chr (Char.code '0' + (v mod 10)));
    if v >= 10 then put (v / 10) (i - 1)
  in
  put k last;
  Bytes.blit_string "DAT" 0 b 8 3;
  Bytes.unsafe_to_string b

let build ct spec =
  if spec.dirs <= 0 || spec.entries_per_dir <= 0 then
    invalid_arg "Dir_workload.build: dirs and entries must be positive";
  let engine = Coretime.engine ct in
  let mem = O2_simcore.Machine.memory (O2_runtime.Engine.machine engine) in
  let clusters_per_dir = dir_bytes_of spec / spec.cluster_bytes in
  let root_clusters =
    1 + (spec.dirs * Fat_types.entry_bytes / spec.cluster_bytes)
  in
  let clusters =
    (spec.dirs * clusters_per_dir) + root_clusters + spec.dirs + 16
  in
  let fs_ =
    Fat.format mem ~label:"bench" ~cluster_bytes:spec.cluster_bytes ~clusters ()
  in
  Fat.set_compare_cycles fs_ spec.compare_cycles;
  let mkdir i =
    match Fat.mkdir fs_ (Printf.sprintf "d%d" i) with
    | Ok d -> d
    | Error e -> failwith ("Dir_workload.build: mkdir: " ^ e)
  in
  let dirs_ = Array.init spec.dirs mkdir in
  let file_names83 = Array.init spec.entries_per_dir file_name83 in
  (match Fat.populate fs_ dirs_ ~names83:file_names83 with
  | Ok () -> ()
  | Error e -> failwith ("Dir_workload.build: populate: " ^ e));
  let dir_addr = Array.map (fun d -> Fat.dir_base_addr fs_ d) dirs_ in
  let objs_ =
    Array.mapi
      (fun i d ->
        Coretime.register ct ~base:dir_addr.(i) ~size:(Fat.dir_bytes fs_ d)
          ~name:d.Fat.dname ())
      dirs_
  in
  let perm = Array.init spec.dirs Fun.id in
  if spec.shuffle_popularity then
    Rng.shuffle (Rng.create ~seed:(spec.seed lxor 0x5eed)) perm;
  let zipf_ =
    match spec.dir_dist with
    | `Uniform -> None
    | `Zipf s -> Some (Dist.zipf ~n:spec.dirs ~s)
  in
  {
    ct;
    fs_;
    spec_ = spec;
    dirs_;
    objs_;
    dir_addr;
    file_names83;
    perm;
    zipf_;
    active_ = spec.dirs;
    next_seed = spec.seed;
  }

let fs t = t.fs_
let spec t = t.spec_
let directory t i = t.dirs_.(i)
let dir_object t i = t.objs_.(i)
let active t = t.active_

let set_active t n = t.active_ <- max 1 (min n (Array.length t.dirs_))

let rotate_popularity t ~by =
  let n = Array.length t.perm in
  if n > 1 then begin
    let by = ((by mod n) + n) mod n in
    let rotated = Array.init n (fun i -> t.perm.((i + by) mod n)) in
    Array.blit rotated 0 t.perm 0 n
  end

(* Sampling maps the full rank order into the active prefix so shrinking
   the set keeps the skew shape. *)
let pick_dir t rng =
  match t.zipf_ with
  | None -> t.perm.(Rng.int rng ~bound:t.active_)
  | Some d -> t.perm.(Dist.sample d rng mod t.active_)

let one_lookup t rng =
  let di = pick_dir t rng in
  let fi = Rng.int rng ~bound:(Array.length t.file_names83) in
  Coretime.ct_start t.ct t.dir_addr.(di);
  let found =
    if t.spec_.use_locks then
      Fat.lookup_locked_83 t.fs_ t.dirs_.(di) t.file_names83.(fi)
    else Fat.lookup_83 t.fs_ t.dirs_.(di) t.file_names83.(fi)
  in
  Coretime.ct_end t.ct;
  if t.spec_.think_cycles > 0 then O2_runtime.Api.compute t.spec_.think_cycles;
  Option.is_some found

let spawn_thread t ~core =
  let engine = Coretime.engine t.ct in
  let rng = Rng.create ~seed:(t.next_seed + (1000 * core)) in
  t.next_seed <- t.next_seed + 1;
  O2_runtime.Engine.spawn engine ~core
    ~name:(Printf.sprintf "lookup-worker-%d" core)
    (fun () ->
      while true do
        ignore (one_lookup t rng)
      done)

let spawn_threads t =
  let engine = Coretime.engine t.ct in
  for core = 0 to O2_runtime.Engine.cores engine - 1 do
    ignore (spawn_thread t ~core)
  done

let spawn_threads_placed t placement =
  Array.iter (fun core -> ignore (spawn_thread t ~core)) placement

let lookups_done t =
  let machine = O2_runtime.Engine.machine (Coretime.engine t.ct) in
  Array.fold_left
    (fun acc c -> acc + c.O2_simcore.Counters.ops_completed)
    0
    (O2_simcore.Machine.all_counters machine)
