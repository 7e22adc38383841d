(* Homes are earned by writing. An object starts unhomed: [home_.(o)]
   holds [lnot h], a negative word, for its nominal home h = o mod n. A
   read-only op on an unhomed object runs on the submitting domain: no
   ship, no inbox, no wake. The first [~write:true] op ships to h, flips
   the word to h and waits out the local reads in flight; from then on
   every op ships to the home, so a written object keeps a single
   writer. The homed path pays one sign test on the word it already
   loads.

   First-write handshake, the Dekker pattern of Native_pool's
   sleepers/epoch pair:
   - reader on domain d: publish o in [reading.(d)] (an SC store), re-read
     [home_.(o)]; still negative -> run the body in place, then
     [reading.(d) <- -1], also on a raise. Non-negative -> clear, ship.
   - writer on h: [home_.(o) <- h] (plain), then poll every
     [reading.(d)] with [fetch_and_add 0] until it no longer holds o.
   All atomic ops on one slot are totally ordered. If the reader's
   publication comes first, the writer's poll sees o and waits for the
   clear, which follows the body: the read happens before the write.
   If the poll comes first, it is a read-modify-write, so it releases
   the flip into the slot and the reader's publication acquires it: the
   re-read sees h and the op ships. Either way no local read overlaps
   the write. Op bodies are effect-free (see Backend_kv), so a reader
   never waits on the writer's domain and the spin ends.

   Counter layout: everything hot is a per-domain row written only by
   its owning worker (ops_by_obj, submits, dstats), so the homed path
   has no contended atomics at all; dstats records and reading slots
   are padded so that no two domains' hot words share a cache line.
   Rows are summed by the coordinator only at quiescence. [home_] is
   plain too: written by [register] and [rebalance] at quiescence
   (published to workers by the next spawn's inbox CAS / drain exchange
   pair) and once per object by its first write, which the handshake
   above orders. *)

(* Padded to 16 words for the reason Native_pool gives for its slots:
   every domain bumps its own record on every op, and unpadded records
   made side by side shared a line (native_kv ran ~25% slower). *)
type dstats = {
  mutable ops : int;
  mutable ships_out : int;
  mutable ships_in : int;
  p3 : int; p4 : int; p5 : int; p6 : int; p7 : int; p8 : int; p9 : int;
  p10 : int; p11 : int; p12 : int; p13 : int; p14 : int; p15 : int;
}

type t = {
  pool : Native_pool.t;
  n : int;  (* pool domains *)
  probe : O2_runtime.Probe.t;
  tel : O2_runtime.Telemetry.t;
  tel_on : bool;  (* cached for with_op's hot path *)
  tsinks : O2_runtime.Telemetry.sink array;  (* per-worker, prefetched *)
  tcoord : O2_runtime.Telemetry.sink;
  mutable nobjs : int;
  mutable home_ : int array;
      (* obj -> home domain, or [lnot] the nominal home until first written *)
  reading : Native_pool.slot array;  (* [domain] -> object in a local read, or -1 *)
  mutable names : string array;
  mutable sizes : int array;
  mutable ops_by_obj : int array array;  (* [domain].(obj), owner-written *)
  mutable submits : int array array;  (* [domain].(obj), owner-written *)
  mutable submits_snap : int array array;  (* coordinator-owned snapshot *)
  stats : dstats array;  (* per-domain, owner-written *)
  mutable migrations_ : int;
  mutable periods : int;  (* completed rebalance steps *)
}

let new_dstats () =
  { ops = 0; ships_out = 0; ships_in = 0; p3 = 0; p4 = 0; p5 = 0; p6 = 0;
    p7 = 0; p8 = 0; p9 = 0; p10 = 0; p11 = 0; p12 = 0; p13 = 0; p14 = 0;
    p15 = 0 }

let create ?(telemetry = O2_runtime.Telemetry.off) ~domains () =
  let pool = Native_pool.create ~telemetry ~domains () in
  {
    pool;
    n = domains;
    probe = O2_runtime.Probe.create ();
    tel = telemetry;
    tel_on = O2_runtime.Telemetry.enabled telemetry;
    tsinks = O2_runtime.Telemetry.sink_array telemetry ~n:domains;
    tcoord = O2_runtime.Telemetry.coordinator telemetry;
    nobjs = 0;
    home_ = Array.make 16 0;
    reading = Array.init domains (fun _ -> Native_pool.make_slot (-1));
    names = Array.make 16 "";
    sizes = Array.make 16 0;
    ops_by_obj = Array.init domains (fun _ -> Array.make 16 0);
    submits = Array.init domains (fun _ -> Array.make 16 0);
    submits_snap = Array.init domains (fun _ -> Array.make 16 0);
    stats = Array.init domains (fun _ -> new_dstats ());
    migrations_ = 0;
    periods = 0;
  }

let shutdown t = Native_pool.shutdown t.pool
let pool t = t.pool
let name _ = "native"
let cores t = t.n
let probe t = t.probe
let objects t = t.nobjs
let home t o =
  let h = t.home_.(o) in
  if h < 0 then lnot h else h

let grow_int_array a cap =
  let a' = Array.make cap 0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let ensure_capacity t =
  let cap = Array.length t.home_ in
  if t.nobjs >= cap then begin
    let cap' = cap * 2 in
    t.home_ <- grow_int_array t.home_ cap';
    t.sizes <- grow_int_array t.sizes cap';
    let names = Array.make cap' "" in
    Array.blit t.names 0 names 0 cap;
    t.names <- names;
    t.ops_by_obj <- Array.map (fun r -> grow_int_array r cap') t.ops_by_obj;
    t.submits <- Array.map (fun r -> grow_int_array r cap') t.submits;
    t.submits_snap <- Array.map (fun r -> grow_int_array r cap') t.submits_snap
  end

let register t ~size ~name =
  if size <= 0 then invalid_arg "Native_backend.register: size must be > 0";
  if Native_pool.current_domain t.pool >= 0 then
    invalid_arg "Native_backend.register: must be called off-pool";
  ensure_capacity t;
  let o = t.nobjs in
  t.nobjs <- o + 1;
  t.home_.(o) <- lnot (o mod t.n);
  t.sizes.(o) <- size;
  t.names.(o) <- name;
  o

let spawn t ~core ~name body = Native_pool.spawn t.pool ~core ~name body

let run t =
  Native_pool.drain t.pool;
  if t.tel_on then O2_runtime.Telemetry.note_quiesce t.tcoord

let telemetry t = t.tel

(* Runs [f] on domain [h], shipping there first if the caller is
   elsewhere, and does the op's accounting where it ran. Telemetry
   timestamps ride in locals: [t0]/[t1] live in the shipped
   continuation's frame, so a span that crosses domains keeps its
   submit-side clock reading with no shared state. Ints when off, so
   the disabled branch costs a cached-bool test and two zero loads. *)
let exec t me obj f ~tel_on ~t0 ~token h =
  let shipped = h <> me in
  if shipped then begin
    let s = t.stats.(me) in
    s.ships_out <- s.ships_out + 1;
    if tel_on then
      O2_runtime.Telemetry.note_ship_out t.tsinks.(me) ~token ~obj ~dst:h;
    O2_runtime.Api.ship_to h;
    (* The continuation resumed on the home's worker; from here until
       the next ship, everything runs there — including the telemetry
       writes, which now target the home's own sink. *)
    let s = t.stats.(h) in
    s.ships_in <- s.ships_in + 1;
    if tel_on then
      O2_runtime.Telemetry.note_ship_in t.tsinks.(h) ~token ~obj ~src:me
  end;
  let here = Native_pool.current_domain t.pool in
  let orow = t.ops_by_obj.(here) in
  orow.(obj) <- orow.(obj) + 1;
  let t1 =
    if tel_on then begin
      O2_runtime.Telemetry.note_start t.tsinks.(here) ~token ~obj;
      O2_runtime.Telemetry.now_ns ()
    end
    else 0
  in
  let r = f () in
  let s = t.stats.(here) in
  s.ops <- s.ops + 1;
  if tel_on then begin
    let sk = t.tsinks.(here) in
    let t2 = O2_runtime.Telemetry.now_ns () in
    O2_runtime.Telemetry.note_end sk ~token ~obj;
    O2_runtime.Telemetry.observe_exec sk (t2 - t1);
    if shipped then begin
      O2_runtime.Telemetry.observe_shipped sk (t2 - t0);
      O2_runtime.Telemetry.observe_ship_delay sk (t1 - t0)
    end
    else O2_runtime.Telemetry.observe_home sk (t2 - t0)
  end;
  r

(* Reader side of the first-write handshake: publish, re-check, run in
   place. The slot is cleared on every exit, including a raise. *)
let local_read t me obj f ~tel_on ~t0 ~token =
  let slot = t.reading.(me) in
  Native_pool.publish slot obj;
  let h = t.home_.(obj) in
  if h >= 0 then begin
    (* A first write got in between: the object has its home now. *)
    Native_pool.publish slot (-1);
    exec t me obj f ~tel_on ~t0 ~token h
  end
  else
    match exec t me obj f ~tel_on ~t0 ~token me with
    | r ->
        Native_pool.publish slot (-1);
        r
    | exception e ->
        Native_pool.publish slot (-1);
        raise e

(* Writer side, run on the nominal home as the first write's prologue:
   the sign flip publishes the home, then local readers drain out. A
   second first write queued behind this one finds the object homed. *)
let claim t obj =
  let h = t.home_.(obj) in
  if h < 0 then begin
    t.home_.(obj) <- lnot h;
    Native_pool.await_vacant t.reading obj
  end

let first_write t me obj f ~tel_on ~t0 ~token h =
  exec t me obj (fun () -> claim t obj; f ()) ~tel_on ~t0 ~token h

let with_op t ?write obj f =
  let me = Native_pool.current_domain t.pool in
  if me < 0 then
    invalid_arg "Native_backend.with_op: called outside a pool worker";
  if obj < 0 || obj >= t.nobjs then
    invalid_arg "Native_backend.with_op: unknown object";
  let row = t.submits.(me) in
  row.(obj) <- row.(obj) + 1;
  let tel_on = t.tel_on in
  let t0 = if tel_on then O2_runtime.Telemetry.now_ns () else 0 in
  let token =
    if tel_on then O2_runtime.Telemetry.op_submit t.tsinks.(me) ~obj else -1
  in
  let h = t.home_.(obj) in
  if h >= 0 then exec t me obj f ~tel_on ~t0 ~token h
  else
    match write with
    | Some true -> first_write t me obj f ~tel_on ~t0 ~token (lnot h)
    | _ -> local_read t me obj f ~tel_on ~t0 ~token

let touch _t ~write:_ ~obj:_ ~off:_ ~len:_ = ()

let compute _t cycles =
  for _ = 1 to cycles do
    ignore (Sys.opaque_identity 0)
  done

let ops_completed t = Array.fold_left (fun acc s -> acc + s.ops) 0 t.stats

let object_ops t o =
  let acc = ref 0 in
  for d = 0 to t.n - 1 do
    acc := !acc + t.ops_by_obj.(d).(o)
  done;
  !acc

let ships t =
  let out = ref 0 and in_ = ref 0 in
  Array.iter
    (fun s ->
      out := !out + s.ships_out;
      in_ := !in_ + s.ships_in)
    t.stats;
  (!out, !in_)

let migrations t = t.migrations_

(* Submit delta for [o] from domain [d] since the last snapshot. *)
let delta t d o = t.submits.(d).(o) - t.submits_snap.(d).(o)

let rebalance t =
  if Native_pool.current_domain t.pool >= 0 then
    invalid_arg "Native_backend.rebalance: must run at a quiesce point";
  let moves = ref 0 in
  (* Objects never written have no home to move (home_ < 0): their ops
     run wherever their clients do, so both passes skip them.
     Pass 1 — affinity: home := the domain that submitted most ops this
     period (ties to the lower index; untouched objects stay put). *)
  for o = 0 to t.nobjs - 1 do
    if t.home_.(o) >= 0 then begin
      let best = ref (-1) and best_n = ref 0 in
      for d = 0 to t.n - 1 do
        let n = delta t d o in
        if n > !best_n then begin
          best := d;
          best_n := n
        end
      done;
      if !best >= 0 && !best <> t.home_.(o) then begin
        t.home_.(o) <- !best;
        incr moves
      end
    end
  done;
  (* Pass 2 — spill: while a home carries more than ~1.5x the average
     period load, move its coldest active objects to the least loaded
     domain. Deterministic: ascending object scans, ties to lower
     indices; bounded by one pass over the objects. *)
  let load = Array.make t.n 0 in
  let total = ref 0 in
  for o = 0 to t.nobjs - 1 do
    let h = t.home_.(o) in
    if h >= 0 then begin
      let w = ref 0 in
      for d = 0 to t.n - 1 do
        w := !w + delta t d o
      done;
      load.(h) <- load.(h) + !w;
      total := !total + !w
    end
  done;
  let cap = (!total * 3 / (2 * t.n)) + 1 in
  let arg_extreme better =
    let best = ref 0 in
    for d = 1 to t.n - 1 do
      if better load.(d) load.(!best) then best := d
    done;
    !best
  in
  let budget = ref t.nobjs in
  let continue_ = ref (t.n > 1) in
  while !continue_ && !budget > 0 do
    let hot = arg_extreme ( > ) in
    if load.(hot) <= cap then continue_ := false
    else begin
      (* The coldest active object homed on [hot]. *)
      let victim = ref (-1) and victim_w = ref max_int in
      for o = 0 to t.nobjs - 1 do
        if t.home_.(o) = hot then begin
          let w = ref 0 in
          for d = 0 to t.n - 1 do
            w := !w + delta t d o
          done;
          if !w > 0 && !w < !victim_w then begin
            victim := o;
            victim_w := !w
          end
        end
      done;
      if !victim < 0 then continue_ := false
      else begin
        let cold = arg_extreme ( < ) in
        if cold = hot || load.(hot) - !victim_w < load.(cold) + !victim_w
        then continue_ := false
        else begin
          t.home_.(!victim) <- cold;
          load.(hot) <- load.(hot) - !victim_w;
          load.(cold) <- load.(cold) + !victim_w;
          incr moves;
          decr budget
        end
      end
    end
  done;
  (* Close the period: snapshot submits, publish counters. *)
  for d = 0 to t.n - 1 do
    Array.blit t.submits.(d) 0 t.submits_snap.(d) 0 t.nobjs
  done;
  t.migrations_ <- t.migrations_ + !moves;
  t.periods <- t.periods + 1;
  if t.tel_on then O2_runtime.Telemetry.note_rebalance t.tcoord ~moves:!moves;
  if O2_runtime.Probe.active t.probe then
    O2_runtime.Probe.emit t.probe
      (O2_runtime.Probe.Rebalanced
         { time = t.periods; moves = !moves; demotions = 0 })
