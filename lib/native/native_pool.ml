(* The raw-primitive shim of lib/native: every Domain / Mutex /
   Condition use in the native backend lives here, beside the effect
   handler that interprets Api shipping on real domains — the same
   confinement discipline as Domain_pool (o2staticcheck's raw-primitive
   allowlist names exactly these two files).

   Park/wake protocol: posts increment [epoch] (then broadcast iff a
   sleeper is advertised); a worker records the epoch BEFORE its final
   empty scan and only sleeps while the epoch is unchanged, re-checked
   under the mutex. A post racing the park either bumps the epoch before
   the worker's check (worker rescans) or blocks on the mutex the
   checking worker still holds until it reaches [Condition.wait] — so no
   wakeup is lost. [sleepers] is advertised before the re-check and the
   poster reads it after its bump (SC atomics: at least one side sees
   the other), so the poster skips the mutex on the fast path safely.

   Quiescence: [inflight] counts spawned client bodies not yet finished;
   the handler's retc/exnc decrement it exactly once per client no
   matter how many times the client shipped between domains. *)

open O2_runtime

type task =
  | Done  (* the dummy sentinel for Deque/Inbox; never executed *)
  | Fresh of { name : string; body : unit -> unit }
  | Resume of (unit, unit) Effect.Deep.continuation

type worker = {
  deque : task Deque.t;
  inbox : task Inbox.t;
  mutable executed : int;  (* owner-written *)
  mutable stolen : int;  (* owner-written *)
  mutable last_victim : int;  (* deque index the last successful steal hit *)
  sink : Telemetry.sink;  (* this worker's single-writer telemetry sink *)
}

type t = {
  n : int;
  tel : Telemetry.t;
  tel_on : bool;  (* Telemetry.enabled tel, cached for the hot loop *)
  coord_sink : Telemetry.sink;
  workers : worker array;
  inflight : int Atomic.t;
  epoch : int Atomic.t;  (* wake ticket: bumped by every post *)
  sleepers : int Atomic.t;
  stop : bool Atomic.t;
  error : exn option Atomic.t;  (* first client exception, kept for drain *)
  lock : Mutex.t;
  wake : Condition.t;  (* workers park here *)
  idle : Condition.t;  (* drain waits here *)
  mutable handles : unit Domain.t array;
  mutable down : bool;
}

(* Worker identity travels in domain-local storage, not in captured
   closure state: a shipped continuation resumes on another domain, and
   its handler must see the NEW domain's index (e.g. for Yield's
   re-queue). The slot also names the pool, so nested/successive pools
   cannot alias each other's indices. *)
let dls_slot : (t * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let domains t = t.n

let current_domain t =
  match Domain.DLS.get dls_slot with
  | Some (p, i) when p == t -> i
  | _ -> -1

let notify t =
  Atomic.incr t.epoch;
  if Atomic.get t.sleepers > 0 then begin
    Mutex.lock t.lock;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock
  end

let post t ~core task =
  Inbox.push t.workers.(core).inbox task;
  notify t

let record_error t e = ignore (Atomic.compare_and_set t.error None (Some e))

let finish t =
  if Atomic.fetch_and_add t.inflight (-1) = 1 then begin
    Mutex.lock t.lock;
    Condition.broadcast t.idle;
    Mutex.unlock t.lock
  end

let make_handler t =
  {
    Effect.Deep.retc = (fun () -> finish t);
    exnc =
      (fun e ->
        record_error t e;
        finish t);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Api.Ship_to core ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                post t ~core (Resume k))
        | Api.Migrate_to core ->
            (* Same delivery as shipping: on real domains there is no
               register state to drag along, only the continuation. *)
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                post t ~core (Resume k))
        | Api.Yield ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                let me = current_domain t in
                Deque.push t.workers.(me).deque (Resume k))
        | _ -> None);
  }

let run_task w handler task =
  w.executed <- w.executed + 1;
  match task with
  | Done -> ()
  | Fresh f -> Effect.Deep.match_with f.body () handler
  | Resume k -> Effect.Deep.continue k ()

(* Thief sweep over peers' deques, round-robin from me+1. A miss (empty
   or lost race) moves on; one full silent lap gives up. A hit leaves
   the victim's index in [w.last_victim] (a plain owner-written field)
   so the telemetry event can name it without the sweep returning a
   pair. *)
let rec sweep t w me i =
  if i >= t.n then Done
  else begin
    let j = me + i in
    let j = if j >= t.n then j - t.n else j in
    let v = Deque.steal t.workers.(j).deque in
    if v != Done then begin
      w.last_victim <- j;
      v
    end
    else sweep t w me (i + 1)
  end

(* Telemetry brackets the blocking section only: a park that loses the
   epoch race before taking the mutex was never asleep and records
   nothing. *)
let park t w e =
  Atomic.incr t.sleepers;
  if Atomic.get t.epoch = e && not (Atomic.get t.stop) then begin
    if t.tel_on then Telemetry.note_park w.sink;
    Mutex.lock t.lock;
    while Atomic.get t.epoch = e && not (Atomic.get t.stop) do
      Condition.wait t.wake t.lock
    done;
    Mutex.unlock t.lock;
    if t.tel_on then Telemetry.note_wake w.sink
  end;
  Atomic.decr t.sleepers

let rec loop t w me handler on_task =
  if not (Atomic.get t.stop) then begin
    let e = Atomic.get t.epoch in
    let drained = Inbox.drain_into w.inbox on_task in
    if drained > 0 && t.tel_on then
      Telemetry.note_inbox_batch w.sink ~count:drained;
    let task = Deque.pop w.deque in
    if task != Done then begin
      run_task w handler task;
      loop t w me handler on_task
    end
    else if drained > 0 then loop t w me handler on_task
    else begin
      let stolen = sweep t w me 1 in
      if stolen != Done then begin
        w.stolen <- w.stolen + 1;
        if t.tel_on then Telemetry.note_steal w.sink ~victim:w.last_victim;
        run_task w handler stolen;
        loop t w me handler on_task
      end
      else begin
        park t w e;
        loop t w me handler on_task
      end
    end
  end

let worker_main t me () =
  Domain.DLS.set dls_slot (Some (t, me));
  let w = t.workers.(me) in
  let handler = make_handler t in
  (* Built once per worker: the drain callback runs shipped/yielded
     continuations immediately (FIFO, preserving per-object op order)
     and makes fresh client bodies stealable on the own deque. *)
  let on_task task =
    match task with
    | Resume _ -> run_task w handler task
    | Fresh _ ->
        Deque.push w.deque task;
        notify t
    | Done -> ()
  in
  loop t w me handler on_task

let create ?(telemetry = Telemetry.off) ~domains () =
  if domains < 1 then invalid_arg "Native_pool.create: domains must be >= 1";
  let sinks = Telemetry.sink_array telemetry ~n:domains in
  let worker i =
    {
      deque = Deque.create ~dummy:Done ();
      inbox = Inbox.create ~dummy:Done ();
      executed = 0;
      stolen = 0;
      last_victim = -1;
      sink = sinks.(i);
    }
  in
  let t =
    {
      n = domains;
      tel = telemetry;
      tel_on = Telemetry.enabled telemetry;
      coord_sink = Telemetry.coordinator telemetry;
      workers = Array.init domains worker;
      inflight = Atomic.make 0;
      epoch = Atomic.make 0;
      sleepers = Atomic.make 0;
      stop = Atomic.make false;
      error = Atomic.make None;
      lock = Mutex.create ();
      wake = Condition.create ();
      idle = Condition.create ();
      handles = [||];
      down = false;
    }
  in
  t.handles <- Array.init domains (fun i -> Domain.spawn (worker_main t i));
  t

let spawn t ~core ~name body =
  if core < 0 || core >= t.n then
    invalid_arg "Native_pool.spawn: core out of range";
  if t.down then invalid_arg "Native_pool.spawn: pool is shut down";
  if t.tel_on then begin
    (* Spawns come from the coordinator or from a worker; either way the
       caller owns exactly one sink. *)
    let me = current_domain t in
    let s = if me >= 0 then t.workers.(me).sink else t.coord_sink in
    Telemetry.note_spawned s ~core
  end;
  Atomic.incr t.inflight;
  Inbox.push t.workers.(core).inbox (Fresh { name; body });
  notify t

let drain t =
  if current_domain t >= 0 then
    invalid_arg "Native_pool.drain: must be called off-pool";
  Mutex.lock t.lock;
  while Atomic.get t.inflight > 0 do
    Condition.wait t.idle t.lock
  done;
  Mutex.unlock t.lock;
  match Atomic.get t.error with
  | None -> ()
  | Some e ->
      Atomic.set t.error None;
      raise e

let shutdown t =
  if not t.down then begin
    t.down <- true;
    Atomic.set t.stop true;
    Atomic.incr t.epoch;
    Mutex.lock t.lock;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.handles
  end

(* Reading slots for Native_backend's first-write handshake, laid out by
   the rule in DESIGN.md, "Home-isolated layout". A slot is a 16-word
   record rather than a Pad_row because the [%atomic_*] primitives
   [Atomic] is built on act on a block's first field; the other fields
   are never read and keep the next slot's word two cache lines away. *)
type slot = {
  mutable v : int;
  p1 : int; p2 : int; p3 : int; p4 : int; p5 : int; p6 : int; p7 : int;
  p8 : int; p9 : int; p10 : int; p11 : int; p12 : int; p13 : int;
  p14 : int; p15 : int;
}

external slot_exchange : slot -> int -> int = "%atomic_exchange"
external slot_fetch_add : slot -> int -> int = "%atomic_fetch_add"

let make_slot v =
  { v; p1 = 0; p2 = 0; p3 = 0; p4 = 0; p5 = 0; p6 = 0; p7 = 0; p8 = 0;
    p9 = 0; p10 = 0; p11 = 0; p12 = 0; p13 = 0; p14 = 0; p15 = 0 }

let publish s v = ignore (slot_exchange s v)

(* The writer side of the handshake. Each poll is [fetch_and_add s 0], a
   read-modify-write rather than a load: a reader whose publication
   lands after the poll then acquires, through the slot itself, every
   write the caller made before polling — which is what lets the
   backend keep its written flag in a plain word. *)
let await_vacant slots v =
  for d = 0 to Array.length slots - 1 do
    let s = slots.(d) in
    while slot_fetch_add s 0 = v do
      Domain.cpu_relax ()
    done
  done

let tasks_executed t =
  Array.fold_left (fun acc w -> acc + w.executed) 0 t.workers

let steals t = Array.fold_left (fun acc w -> acc + w.stolen) 0 t.workers
let telemetry t = t.tel
