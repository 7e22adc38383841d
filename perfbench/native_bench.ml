(* native_kv and native_dir: the O2 model on real OCaml domains, driven
   closed-loop from the coordinator. A round spawns one body per client
   (client c on domain c mod domains), drains the pool with
   Native_backend.run, then calls Native_backend.rebalance; rounds run
   back to back. Inputs are generated from the seed in set-up, encoded
   one int per op in a Bigarray, together with each op's expected result
   from a sequential reference; clients compare inline, so no result is
   stored and nothing is checked outside the timed rounds.

   Round modes: plain rounds read no clock per op (throughput); latency
   rounds time one op in [latency_every] with the non-allocating clock;
   traced rounds (trace 1 only) time one op in [trace_every], classify it
   as home or shipped, and record client, drain and rebalance spans. *)

module NB = O2_native.Native_backend
module Pool = O2_native.Native_pool
module Kv = O2_native.Backend_kv.Make (O2_native.Native_backend)
module Dir = O2_native.Backend_dir.Make (O2_native.Native_backend)
module Op = O2_native.Op_program
module R = Report
open Bigarray

type ints = (int, int_elt, c_layout) Array1.t
type kind = Kv_work | Dir_work

type size = {
  clients : int;
  ops_per_client : int;
  rounds_per_cycle : int;  (** Distinct rounds generated; the run cycles. *)
  setups : int;  (** Set-ups per process; setup_s is their median. *)
}

let full = { clients = 8; ops_per_client = 20_000; rounds_per_cycle = 8; setups = 3 }
let tiny = { clients = 8; ops_per_client = 500; rounds_per_cycle = 2; setups = 2 }

(* Backend_kv: 64 buckets x 32 slots, keyspace 1024; Backend_dir: 24
   directories x 48 entries (keys range over 52, so ~8% miss). *)
let kv_buckets = 64
let kv_slots = 32
let kv_keyspace = 1024
let dir_count = 24
let dir_entries = 48
let latency_every = 16
let trace_every = 16

(* Latency samples kept per distribution (a uniform subset beyond it). *)
let sample_cap = 1_000_000

type inputs = {
  prog : ints;  (** Encoded ops, round-major then client. *)
  expect : ints;  (** Each op's expected encoded result. *)
  off : int array;  (** [off.(r * clients + c)] .. next: one body's ops. *)
}

let encode_kv = function
  | Op.Get k -> k lsl 2
  | Op.Put (k, v) -> 1 lor (k lsl 2) lor (v lsl 12)
  | Op.Delete k -> 2 lor (k lsl 2)

(* The sequential reference for the kv programs: a map from key to value
   (-1 = absent). Key ownership makes every op's result a function of
   its own client's history, so the schedule the pool picks cannot
   change it. The last round of a cycle ends with each client deleting
   all its keys, so the store is empty again when the cycle repeats and
   the same expected results hold on every pass through it. *)
let gen_kv ~seed sz =
  if Op.max_bucket_load ~buckets:kv_buckets ~keyspace:kv_keyspace > kv_slots
  then invalid_arg "native_kv: a bucket could overflow";
  let clients = sz.clients in
  let own c = (kv_keyspace - c + clients - 1) / clients in
  let bodies =
    Array.init (sz.rounds_per_cycle * clients) (fun i ->
        let r = i / clients and c = i mod clients in
        let p =
          Op.kv_program ~clients ~client:c ~ops:sz.ops_per_client
            ~keyspace:kv_keyspace ~seed:((seed * 7919) + r)
        in
        if r = sz.rounds_per_cycle - 1 then
          Array.append p (Array.init (own c) (fun j -> Op.Delete (c + (clients * j))))
        else p)
  in
  let off = Array.make (Array.length bodies + 1) 0 in
  Array.iteri (fun i b -> off.(i + 1) <- off.(i) + Array.length b) bodies;
  let n = off.(Array.length bodies) in
  let prog = Array1.create int c_layout n and expect = Array1.create int c_layout n in
  let model = Array.make kv_keyspace (-1) in
  Array.iteri
    (fun i body ->
      Array.iteri
        (fun j op ->
          let raw =
            match op with
            | Op.Get k -> model.(k)
            | Op.Put (k, v) ->
                model.(k) <- v;
                1
            | Op.Delete k ->
                let present = model.(k) >= 0 in
                model.(k) <- -1;
                if present then 1 else 0
          in
          prog.{off.(i) + j} <- encode_kv op;
          expect.{off.(i) + j} <- Op.kv_result op ~raw)
        body)
    bodies;
  { prog; expect; off }

(* Backend_dir keeps key k at slot k, so a lookup's answer is its key
   when the key is stored and -1 otherwise. *)
let gen_dir ~seed sz =
  let clients = sz.clients in
  let per = sz.ops_per_client in
  let bodies = sz.rounds_per_cycle * clients in
  let off = Array.init (bodies + 1) (fun i -> i * per) in
  let prog = Array1.create int c_layout (bodies * per)
  and expect = Array1.create int c_layout (bodies * per) in
  for i = 0 to bodies - 1 do
    let p =
      Op.dir_program ~dirs:dir_count ~entries_per_dir:dir_entries ~ops:per
        ~seed:((seed * 7919) + i)
    in
    Array.iteri
      (fun j (dir, key) ->
        prog.{(i * per) + j} <- dir lor (key lsl 8);
        expect.{(i * per) + j} <- (if key < dir_entries then key else -1))
      p
  done;
  { prog; expect; off }

(* One op through the public workload API, and the object it targets. *)
type target = { exec : int -> int; obj : int -> int }

let kv_target store =
  {
    exec =
      (fun code ->
        let key = (code lsr 2) land 1023 in
        match code land 3 with
        | 0 -> Kv.get store ~key + 1
        | 1 -> if Kv.put store ~key ~value:(code lsr 12) then 1 else 0
        | _ -> if Kv.delete store ~key then 1 else 0);
    obj = (fun code -> Kv.bucket_obj store (Kv.bucket_of_key store ((code lsr 2) land 1023)));
  }

let dir_target fs =
  {
    exec = (fun code -> Dir.lookup fs ~dir:(code land 0xff) ~key:(code lsr 8));
    obj = (fun code -> Dir.dir_obj fs (code land 0xff));
  }

type env = {
  sz : size;
  domains : int;
  b : NB.t;
  target : target;
  inputs : inputs;
  pool_spawn_ns : int;
  program_gen_ns : int;
  setup_ns : int;
}

(* Host calibration (see Calib): the kernel runs on every domain at once
   after each round, and each round's time is scaled by the mean factor
   over the domains; set-up times are scaled by the run's median factor.
   The native workloads slow in step with the kernel (exponent 1). *)
let host_exponent = 1.0

let setup ~kind ~seed ~domains sz =
  let t0 = Clock.now_ns () in
  let b = NB.create ~domains () in
  let target =
    match kind with
    | Kv_work ->
        kv_target (Kv.create b ~name:"kv" ~buckets:kv_buckets ~slots_per_bucket:kv_slots ())
    | Dir_work ->
        dir_target (Dir.create b ~name:"dir" ~dirs:dir_count ~entries_per_dir:dir_entries ())
  in
  let t1 = Clock.now_ns () in
  let inputs = match kind with Kv_work -> gen_kv ~seed sz | Dir_work -> gen_dir ~seed sz in
  let t2 = Clock.now_ns () in
  Gc.compact ();
  let t3 = Clock.now_ns () in
  {
    sz;
    domains;
    b;
    target;
    inputs;
    pool_spawn_ns = t1 - t0;
    program_gen_ns = t2 - t1;
    setup_ns = t3 - t0;
  }

type mode = Plain | Latency | Traced

(* Per-client scratch the bodies write and the coordinator reads after
   the drain (the pool's drain orders the two). *)
type scratch = {
  bad : int array;  (** Mismatches per client. *)
  spawn_at : int array;
  body_start : int array;
  body_end : int array;
  lat : int array array;  (** Latency samples per client. *)
  nlat : int array;
  sp_start : int array array;  (** Traced op spans per client. *)
  sp_stop : int array array;
  sp_ship : int array array;  (** 1 when the op shipped. *)
  nsp : int array;
  calib : Calib.t array;  (** One kernel per domain. *)
  domain_host : float array;  (** Each domain's last factor. *)
}

let scratch ~domains sz =
  let per = sz.ops_per_client + kv_keyspace in
  let lat_cap = (per / latency_every) + 1 and sp_cap = (per / trace_every) + 1 in
  let c = sz.clients in
  {
    bad = Array.make c 0;
    spawn_at = Array.make c 0;
    body_start = Array.make c 0;
    body_end = Array.make c 0;
    lat = Array.init c (fun _ -> Array.make lat_cap 0);
    nlat = Array.make c 0;
    sp_start = Array.init c (fun _ -> Array.make sp_cap 0);
    sp_stop = Array.init c (fun _ -> Array.make sp_cap 0);
    sp_ship = Array.init c (fun _ -> Array.make sp_cap 0);
    nsp = Array.make c 0;
    calib = Array.init domains (fun _ -> Calib.native ());
    domain_host = Array.make domains 1.0;
  }

let plain_body e s ~c ~lo ~hi () =
  let prog = e.inputs.prog and expect = e.inputs.expect and exec = e.target.exec in
  let bad = ref 0 in
  for i = lo to hi - 1 do
    if exec (Array1.unsafe_get prog i) <> Array1.unsafe_get expect i then incr bad
  done;
  s.bad.(c) <- !bad

let latency_body e s ~c ~lo ~hi () =
  let prog = e.inputs.prog and expect = e.inputs.expect and exec = e.target.exec in
  let lat = s.lat.(c) in
  let bad = ref 0 and n = ref 0 in
  for i = lo to hi - 1 do
    let code = Array1.unsafe_get prog i in
    let r =
      if (i - lo) mod latency_every = 0 then begin
        let t0 = Clock.now_ns () in
        let r = exec code in
        lat.(!n) <- Clock.now_ns () - t0;
        incr n;
        r
      end
      else exec code
    in
    if r <> Array1.unsafe_get expect i then incr bad
  done;
  s.nlat.(c) <- !n;
  s.bad.(c) <- !bad

let traced_body e s ~c ~lo ~hi () =
  s.body_start.(c) <- Clock.now_ns ();
  let prog = e.inputs.prog and expect = e.inputs.expect and exec = e.target.exec in
  let pool = NB.pool e.b in
  let st = s.sp_start.(c) and sp = s.sp_stop.(c) and sh = s.sp_ship.(c) in
  let bad = ref 0 and n = ref 0 in
  for i = lo to hi - 1 do
    let code = Array1.unsafe_get prog i in
    let r =
      if (i - lo) mod trace_every = 0 then begin
        let home = NB.home e.b (e.target.obj code) in
        let shipped = home <> Pool.current_domain pool in
        let t0 = Clock.now_ns () in
        let r = exec code in
        st.(!n) <- t0;
        sp.(!n) <- Clock.now_ns ();
        sh.(!n) <- (if shipped then 1 else 0);
        incr n;
        r
      end
      else exec code
    in
    if r <> Array1.unsafe_get expect i then incr bad
  done;
  s.nsp.(c) <- !n;
  s.bad.(c) <- !bad;
  s.body_end.(c) <- Clock.now_ns ()

(* Everything the window accumulates, per mode where it matters. *)
type acc = {
  rates : Stats.Fbuf.t array;
      (** ops/s per round at the quiet host's speed, indexed by mode. *)
  raw_plain : Stats.Fbuf.t;  (** Plain rounds' ops/s as measured. *)
  host : Stats.Fbuf.t;  (** Calibration factor per round. *)
  lat : Stats.Ibuf.t;
  home_ns : Stats.Ibuf.t;
  ship_ns : Stats.Ibuf.t;
  rebalance_ns : Stats.Ibuf.t;
  spawn_to_start : Stats.Ibuf.t;
  drain_tail : Stats.Ibuf.t;
  mutable attempted : int;
  mutable failed : int;
  mutable raised : string list;
  mutable traced_wall_ns : int;
  mutable traced_ops : int;
  mutable traced_body_ns : int;
  mutable traced_serial_ns : int;  (** Spawn loop + drain tail + rebalance. *)
  mutable calib_tasks : int;  (** Pool tasks and steals of [calibrate]. *)
  mutable calib_steals : int;
  mutable rb_calls : int;
  mutable rb_moves : int;
  mutable next_op : int;  (** Op ids for traced spans. *)
}

let new_acc () =
  {
    rates = Array.init 3 (fun _ -> Stats.Fbuf.create ());
    raw_plain = Stats.Fbuf.create ();
    host = Stats.Fbuf.create ();
    lat = Stats.Ibuf.create ~cap:sample_cap 4096;
    home_ns = Stats.Ibuf.create ~cap:sample_cap 4096;
    ship_ns = Stats.Ibuf.create ~cap:sample_cap 4096;
    rebalance_ns = Stats.Ibuf.create 256;
    spawn_to_start = Stats.Ibuf.create 256;
    drain_tail = Stats.Ibuf.create 256;
    attempted = 0;
    failed = 0;
    raised = [];
    traced_wall_ns = 0;
    traced_ops = 0;
    traced_body_ns = 0;
    traced_serial_ns = 0;
    calib_tasks = 0;
    calib_steals = 0;
    rb_calls = 0;
    rb_moves = 0;
    next_op = 0;
  }

let mode_index = function Plain -> 0 | Latency -> 1 | Traced -> 2

(* The calibration kernel on every domain at once: the mean factor. Its
   pool tasks are kept out of the pool's per-layer counts. *)
let calibrate e s acc =
  let pool = NB.pool e.b in
  let tasks0 = Pool.tasks_executed pool and steals0 = Pool.steals pool in
  for d = 0 to e.domains - 1 do
    NB.spawn e.b ~core:d ~name:"calibrate" (fun () ->
        s.domain_host.(d) <- Calib.factor s.calib.(d))
  done;
  NB.run e.b;
  acc.calib_tasks <- acc.calib_tasks + (Pool.tasks_executed pool - tasks0);
  acc.calib_steals <- acc.calib_steals + (Pool.steals pool - steals0);
  Array.fold_left ( +. ) 0.0 s.domain_host /. float_of_int e.domains

let round e s acc ~spans ~mode ~r =
  let sz = e.sz in
  let base = r mod sz.rounds_per_cycle * sz.clients in
  let off = e.inputs.off in
  let ops = off.(base + sz.clients) - off.(base) in
  let t0 = Clock.now_ns () in
  for c = 0 to sz.clients - 1 do
    let lo = off.(base + c) and hi = off.(base + c + 1) in
    let body =
      match mode with
      | Plain -> plain_body e s ~c ~lo ~hi
      | Latency -> latency_body e s ~c ~lo ~hi
      | Traced -> traced_body e s ~c ~lo ~hi
    in
    s.spawn_at.(c) <- Clock.now_ns ();
    NB.spawn e.b ~core:(c mod e.domains) ~name:"client" body
  done;
  let t_spawned = Clock.now_ns () in
  let raised = match NB.run e.b with () -> None | exception ex -> Some ex in
  let t_drained = Clock.now_ns () in
  let moves0 = NB.migrations e.b in
  NB.rebalance e.b;
  let t1 = Clock.now_ns () in
  acc.rb_calls <- acc.rb_calls + 1;
  acc.rb_moves <- acc.rb_moves + (NB.migrations e.b - moves0);
  Stats.Ibuf.add acc.rebalance_ns (t1 - t_drained);
  acc.attempted <- acc.attempted + ops;
  (match raised with
  | Some ex ->
      acc.failed <- acc.failed + ops;
      acc.raised <- Printexc.to_string ex :: acc.raised
  | None -> acc.failed <- acc.failed + Array.fold_left ( + ) 0 s.bad);
  Array.fill s.bad 0 sz.clients 0;
  let host = calibrate e s acc in
  Stats.Fbuf.add acc.host host;
  let scaled ns = Calib.scale ~exponent:host_exponent host ns in
  Stats.Fbuf.add acc.rates.(mode_index mode) (float_of_int ops /. (scaled (t1 - t0) /. 1e9));
  match mode with
  | Plain -> Stats.Fbuf.add acc.raw_plain (float_of_int ops /. (float_of_int (t1 - t0) /. 1e9))
  | Latency ->
      for c = 0 to sz.clients - 1 do
        for i = 0 to s.nlat.(c) - 1 do
          Stats.Ibuf.add acc.lat (Float.to_int (Float.round (scaled s.lat.(c).(i))))
        done
      done
  | Traced ->
      let last_end = Array.fold_left max 0 s.body_end in
      Stats.Ibuf.add acc.drain_tail (t_drained - last_end);
      (* The first body to start prices dispatch and wake; later bodies
         also queue behind their domain's earlier clients. *)
      let first = ref max_int in
      for c = 0 to sz.clients - 1 do
        first := min !first (s.body_start.(c) - s.spawn_at.(c))
      done;
      Stats.Ibuf.add acc.spawn_to_start !first;
      acc.traced_wall_ns <- acc.traced_wall_ns + (t1 - t0);
      acc.traced_ops <- acc.traced_ops + ops;
      acc.traced_serial_ns <-
        acc.traced_serial_ns + (t_spawned - t0) + (t_drained - last_end) + (t1 - t_drained);
      let root = R.Spans.add spans ~name:"round" ~start:t0 ~stop:t1 ~parent:(-1) ~op:(-1) in
      ignore (R.Spans.add spans ~name:"spawn" ~start:t0 ~stop:t_spawned ~parent:root ~op:(-1));
      for c = 0 to sz.clients - 1 do
        acc.traced_body_ns <- acc.traced_body_ns + (s.body_end.(c) - s.body_start.(c));
        let body =
          R.Spans.add spans ~name:"client" ~start:s.body_start.(c) ~stop:s.body_end.(c)
            ~parent:root ~op:(-1)
        in
        for i = 0 to s.nsp.(c) - 1 do
          let d = s.sp_stop.(c).(i) - s.sp_start.(c).(i) in
          let shipped = s.sp_ship.(c).(i) = 1 in
          Stats.Ibuf.add (if shipped then acc.ship_ns else acc.home_ns) d;
          let op = acc.next_op in
          acc.next_op <- op + 1;
          ignore
            (R.Spans.add spans
               ~name:(if shipped then "ship_op" else "home_op")
               ~start:s.sp_start.(c).(i) ~stop:s.sp_stop.(c).(i) ~parent:body ~op)
        done
      done;
      ignore
        (R.Spans.add spans ~name:"drain_tail" ~start:last_end ~stop:t_drained ~parent:root
           ~op:(-1));
      ignore
        (R.Spans.add spans ~name:"rebalance" ~start:t_drained ~stop:t1 ~parent:root ~op:(-1))

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : R.metric list;
  info : R.metric list;
  raised : string list;
}

(* Set up [sz.setups] times (each a fresh pool, registration, inputs and
   a settled heap) and keep the last; setup_s is the median. *)
let setups ~kind ~seed ~domains sz =
  let rec go i prev times =
    if i = sz.setups then (Option.get prev, times)
    else
      let () = Option.iter (fun e -> NB.shutdown e.b) prev in
      let e = setup ~kind ~seed ~domains sz in
      go (i + 1) (Some e) (e :: times)
  in
  go 0 None []

let run ~kind ~seed ~seconds ~trace ~domains ~tiny:is_tiny ~corrupt ~spans =
  let sz = if is_tiny then tiny else full in
  let e, all = setups ~kind ~seed ~domains sz in
  let med f = Stats.median (Array.of_list (List.map (fun e -> float_of_int (f e) /. 1e9) all)) in
  (* The self-test's corruption: one wrong expected result must surface
     as exactly one failed op per pass over that round. *)
  if corrupt then e.inputs.expect.{0} <- e.inputs.expect.{0} + 1;
  Fun.protect
    ~finally:(fun () -> NB.shutdown e.b)
    (fun () ->
      let s = scratch ~domains sz in
      let acc = new_acc () in
      let schedule j =
        if trace then match j mod 3 with 0 -> Plain | 1 -> Latency | _ -> Traced
        else if j mod 4 = 3 then Latency
        else Plain
      in
      (* One untimed cycle first: caches, homes and the heap settle. *)
      let warm = new_acc () in
      for r = 0 to sz.rounds_per_cycle - 1 do
        round e s warm ~spans ~mode:Plain ~r
      done;
      let pool = NB.pool e.b in
      let steals0 = Pool.steals pool and tasks0 = Pool.tasks_executed pool in
      let ships0 = fst (NB.ships e.b) in
      let gc0 = Gc.quick_stat () in
      let t0 = Clock.now_ns () in
      let j = ref 0 in
      (* At least two full cycles of every mode, then until time is up. *)
      while !j < 6 * sz.rounds_per_cycle || Clock.seconds_since t0 < seconds do
        round e s acc ~spans ~mode:(schedule !j) ~r:(sz.rounds_per_cycle + !j);
        incr j
      done;
      let gc1 = Gc.quick_stat () in
      let ops = acc.attempted in
      let per_op n = float_of_int n /. float_of_int (max 1 ops) in
      let per_mop n = float_of_int n /. (float_of_int (max 1 ops) /. 1e6) in
      let plain_rate = Stats.Fbuf.median acc.rates.(0) in
      let lat_rate = Stats.Fbuf.median acc.rates.(1) in
      let overhead rate = 100.0 *. ((plain_rate /. rate) -. 1.0) in
      let failed = acc.failed + warm.failed in
      let attempted = acc.attempted + warm.attempted in
      let p50_p99 ib =
        match Stats.Ibuf.percentiles ib [ 50.0; 99.0 ] with
        | [ p50; p99 ] -> (p50, p99)
        | _ -> assert false
      in
      let median ib = fst (p50_p99 ib) in
      let lat_metrics name ib =
        if ib.Stats.Ibuf.n >= 1000 then
          let p50, p99 = p50_p99 ib in
          [ R.metric (name ^ ".p50") "ns" p50; R.metric (name ^ ".p99") "ns" p99 ]
        else
          let why = Printf.sprintf "%d samples; a p99 needs 1000" ib.Stats.Ibuf.n in
          [ R.absent (name ^ ".p50") "ns" why; R.absent (name ^ ".p99") "ns" why ]
      in
      let e2e () =
        let p50, p99 = p50_p99 acc.lat in
        [
          R.metric "setup_s" "s"
            (med (fun e -> e.setup_ns) /. (Stats.Fbuf.median acc.host ** host_exponent));
          R.metric "ops_per_s" "1/s" plain_rate;
          R.metric "op_p50_ns" "ns" p50;
          R.metric "op_p99_ns" "ns" p99;
        ]
      in
      let layers () =
        let d = float_of_int domains in
        let traced_ops = float_of_int (max 1 acc.traced_ops) in
        let e2e_dns = d *. float_of_int acc.traced_wall_ns /. traced_ops in
        let accounted =
          (float_of_int acc.traced_body_ns +. (d *. float_of_int acc.traced_serial_ns))
          /. traced_ops
        in
        lat_metrics "native_backend.home_op_ns" acc.home_ns
        @ lat_metrics "native_backend.ship_op_ns" acc.ship_ns
        @ [
          R.metric "native_backend.ships_per_op" "count" (per_op (fst (NB.ships e.b) - ships0));
          R.metric "native_backend.rebalance_us" "us" (median acc.rebalance_ns /. 1e3);
          R.metric "native_backend.rebalance_moves" "count"
            (float_of_int acc.rb_moves /. float_of_int (max 1 acc.rb_calls));
          R.metric "native_pool.spawn_to_start_us" "us" (median acc.spawn_to_start /. 1e3);
          R.metric "native_pool.drain_tail_us" "us" (median acc.drain_tail /. 1e3);
          R.metric "native_pool.steals" "count" (float_of_int (Pool.steals pool - steals0 - acc.calib_steals));
          R.metric "native_pool.tasks_per_op" "count" (per_op (Pool.tasks_executed pool - tasks0 - acc.calib_tasks));
          R.metric "gc.minor_per_mop" "count"
            (per_mop (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
          R.metric "gc.major_per_mop" "count"
            (per_mop (gc1.Gc.major_collections - gc0.Gc.major_collections));
          R.metric "setup.program_gen_s" "s" (med (fun e -> e.program_gen_ns));
          R.metric "setup.pool_spawn_s" "s" (med (fun e -> e.pool_spawn_ns));
          R.metric "trace.overhead_pct" "%" (overhead (Stats.Fbuf.median acc.rates.(2)));
          R.metric "latency_pass.overhead_pct" "%" (overhead lat_rate);
          R.metric "native.unaccounted_ns_per_op" "ns" (e2e_dns -. accounted);
          R.metric "bench.failed_op_share" "ratio"
            (float_of_int failed /. float_of_int (max 1 attempted));
        ]
      in
      let info =
        [
          R.metric "rounds.plain" "count" (float_of_int acc.rates.(0).Stats.Fbuf.n);
          R.metric "host_factor.median" "ratio" (Stats.Fbuf.median acc.host);
          R.metric "ops_per_s.raw" "1/s" (Stats.Fbuf.median acc.raw_plain);
          R.metric "setup_s.raw" "s" (med (fun e -> e.setup_ns));
          R.metric "rounds.plain_rate_p10" "1/s" (Stats.Fbuf.quantile acc.rates.(0) 0.1);
          R.metric "rounds.plain_rate_p90" "1/s" (Stats.Fbuf.quantile acc.rates.(0) 0.9);
          R.metric "rounds.latency" "count" (float_of_int acc.rates.(1).Stats.Fbuf.n);
          R.metric "latency_pass.samples" "count" (float_of_int acc.lat.Stats.Ibuf.seen);
          R.metric "latency_pass.ops_per_s" "1/s" lat_rate;
          R.metric "latency_pass.overhead_pct" "%" (overhead lat_rate);
          R.metric "failed_op_share" "ratio" (float_of_int failed /. float_of_int (max 1 attempted));
        ]
      in
      {
        correct = failed = 0;
        attempted;
        failed;
        metrics = (if trace then layers () else e2e ());
        info;
        raised = List.rev_append warm.raised (List.rev acc.raised);
      })

(* Names of the native per-layer metrics (the simulator prints them as
   not applicable). *)
let layer_names =
  [
    ("native_backend.home_op_ns.p50", "ns");
    ("native_backend.home_op_ns.p99", "ns");
    ("native_backend.ship_op_ns.p50", "ns");
    ("native_backend.ship_op_ns.p99", "ns");
    ("native_backend.ships_per_op", "count");
    ("native_backend.rebalance_us", "us");
    ("native_backend.rebalance_moves", "count");
    ("native_pool.spawn_to_start_us", "us");
    ("native_pool.drain_tail_us", "us");
    ("native_pool.steals", "count");
    ("native_pool.tasks_per_op", "count");
    ("setup.program_gen_s", "s");
    ("setup.pool_spawn_s", "s");
    ("latency_pass.overhead_pct", "%");
    ("native.unaccounted_ns_per_op", "ns");
  ]
