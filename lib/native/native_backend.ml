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

   Counter layout: each domain's op counters and its per-object submit
   and op counts share one Pad_row written only by that domain's worker
   (DESIGN.md, "Home-isolated layout"), so the homed path writes no
   line another domain touches and has no contended atomics at all.
   Rows are summed by the coordinator only at quiescence. [home_] is
   plain too: written by [register] and [rebalance] at quiescence
   (published to workers by the next spawn's inbox CAS / drain exchange
   pair) and once per object by its first write, which the handshake
   above orders. *)

(* Word offsets in a domain's row: three op counters, then one
   (submits, ops) pair per object, so an op's two per-object bumps land
   on the same line. *)
let w_ops = 0
let w_ships_out = 1
let w_ships_in = 2
let w_submits o = 3 + (2 * o)
let w_obj_ops o = 4 + (2 * o)
let row_words cap = 3 + (2 * cap)

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
  rows : Pad_row.t array;  (* [domain], owner-written; see the offsets *)
  submits_snap : int array array;  (* [domain].(obj), coordinator-owned *)
  mutable migrations_ : int;
  mutable periods : int;  (* completed rebalance steps *)
}

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
    rows = Array.init domains (fun _ -> Pad_row.make (row_words 16));
    submits_snap = Array.init domains (fun _ -> Array.make 16 0);
    migrations_ = 0;
    periods = 0;
  }

let shutdown t = Native_pool.shutdown t.pool
let pool t = t.pool
let name _ = "native"
let cores t = t.n
let probe t = t.probe
let objects t = t.nobjs

let check_obj t fn o =
  if o < 0 || o >= t.nobjs then
    invalid_arg ("Native_backend." ^ fn ^ ": unknown object")

let home t o =
  check_obj t "home" o;
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
    for d = 0 to t.n - 1 do
      t.rows.(d) <- Pad_row.grow t.rows.(d) (row_words cap');
      t.submits_snap.(d) <- grow_int_array t.submits_snap.(d) cap'
    done
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
    Pad_row.incr t.rows.(me) w_ships_out;
    if tel_on then
      O2_runtime.Telemetry.note_ship_out t.tsinks.(me) ~token ~obj ~dst:h;
    O2_runtime.Api.ship_to h;
    (* The continuation resumed on the home's worker; from here until
       the next ship, everything runs there — including the telemetry
       writes, which now target the home's own sink. *)
    Pad_row.incr t.rows.(h) w_ships_in;
    if tel_on then
      O2_runtime.Telemetry.note_ship_in t.tsinks.(h) ~token ~obj ~src:me
  end;
  let row = t.rows.(h) in
  Pad_row.incr row (w_obj_ops obj);
  let t1 =
    if tel_on then begin
      O2_runtime.Telemetry.note_start t.tsinks.(h) ~token ~obj;
      O2_runtime.Telemetry.now_ns ()
    end
    else 0
  in
  let r = f () in
  Pad_row.incr row w_ops;
  if tel_on then begin
    let sk = t.tsinks.(h) in
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
  Pad_row.incr t.rows.(me) (w_submits obj);
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

(* Both are the simulator's price for loads and compares the op body
   really performs, so on real cores they cost nothing on top; [priced]
   tells the programs not to call them at all. *)
let priced = false
let touch _t ~write:_ ~obj:_ ~off:_ ~len:_ = ()
let compute _t _cycles = ()

let sum_rows t w =
  Array.fold_left (fun acc r -> acc + Pad_row.get r w) 0 t.rows

let ops_completed t = sum_rows t w_ops

let object_ops t o =
  check_obj t "object_ops" o;
  sum_rows t (w_obj_ops o)

let ships t = (sum_rows t w_ships_out, sum_rows t w_ships_in)

let guards_clear t = Array.for_all Pad_row.guards_clear t.rows

let migrations t = t.migrations_

(* Submit delta for [o] from domain [d] since the last snapshot. *)
let delta t d o =
  Pad_row.get t.rows.(d) (w_submits o) - t.submits_snap.(d).(o)

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
    let row = t.rows.(d) and snap = t.submits_snap.(d) in
    for o = 0 to t.nobjs - 1 do
      snap.(o) <- Pad_row.get row (w_submits o)
    done
  done;
  t.migrations_ <- t.migrations_ + !moves;
  t.periods <- t.periods + 1;
  if t.tel_on then O2_runtime.Telemetry.note_rebalance t.tcoord ~moves:!moves;
  if O2_runtime.Probe.active t.probe then
    O2_runtime.Probe.emit t.probe
      (O2_runtime.Probe.Rebalanced
         { time = t.periods; moves = !moves; demotions = 0 })
