open O2_simcore

type resumption = { thread : Thread.t; run : unit -> unit }

type event =
  | Run of int * (unit -> unit)
      (* Resume the operation occupying this core (core stays busy). *)
  | Release of int
      (* The occupying operation left the core: mark free, dispatch next. *)
  | Poke of int  (* Dispatch if the core is idle. *)
  | Arrive of int * resumption  (* Migration arrival: enqueue and poke. *)
  | Control of { f : now:int -> unit; daemon : bool }
      (* Zero-cost engine callback. Daemon events (recurring monitors)
         never keep the simulation alive by themselves: when only daemons
         remain queued, [run] stops instead of ticking forever. *)

let is_daemon = function
  | Control { daemon; _ } -> daemon
  | Run _ | Release _ | Poke _ | Arrive _ -> false

type core_state = {
  cid : int;
  mutable clock : int;
  runq : resumption Queue.t;
  mutable busy : bool;
  mutable idle_since : int;  (* -1 when not idle *)
}

type t = {
  machine : Machine.t;
  cores_ : core_state array;
  queue : event Event_queue.t;
  probe_ : Probe.t;
  mutable last_time : int;
  mutable next_thread_id : int;
  mutable events : int;
  mutable live : int;
  mutable nondaemon_pending : int;
}

let create machine =
  let n = Config.cores (Machine.cfg machine) in
  {
    machine;
    cores_ =
      Array.init n (fun cid ->
          { cid; clock = 0; runq = Queue.create (); busy = false; idle_since = 0 });
    queue = Event_queue.create ();
    probe_ = Probe.create ();
    last_time = 0;
    next_thread_id = 0;
    events = 0;
    live = 0;
    nondaemon_pending = 0;
  }

let machine t = t.machine
let probe t = t.probe_
let cores t = Array.length t.cores_
let now t = t.last_time
let core_clock t c = t.cores_.(c).clock
let events_processed t = t.events
let live_threads t = t.live

let schedule t ~time ev =
  if not (is_daemon ev) then t.nondaemon_pending <- t.nondaemon_pending + 1;
  Event_queue.push t.queue ~time ev

let charge_busy t core cost =
  let c = Machine.counters t.machine core in
  c.Counters.busy_cycles <- c.Counters.busy_cycles + cost

let account_idle t cs =
  if cs.idle_since >= 0 then begin
    let c = Machine.counters t.machine cs.cid in
    c.Counters.idle_cycles <- c.Counters.idle_cycles + (cs.clock - cs.idle_since);
    cs.idle_since <- -1
  end

(* Start the next queued operation, or go idle. Precondition: not busy. *)
let dispatch t cs =
  match Queue.take_opt cs.runq with
  | None -> if cs.idle_since < 0 then cs.idle_since <- cs.clock
  | Some r ->
      account_idle t cs;
      cs.busy <- true;
      r.run ()

exception Not_lock_owner of string

(* Shared movement machinery for thread migration and active-message
   operation shipping: charge [send] on the source, free it, land on the
   target [wire] cycles later, charge [land_] there, resume. *)
let move_thread t th ~target ~send ~wire ~land_ k =
  let open Effect.Deep in
  if target < 0 || target >= Array.length t.cores_ then
    invalid_arg "migrate_to: core out of range";
  let src = th.Thread.core in
  let cs = t.cores_.(src) in
  if target = src then
    schedule t ~time:cs.clock (Run (src, fun () -> continue k ()))
  else begin
    let csrc = Machine.counters t.machine src in
    csrc.Counters.migrations_out <- csrc.Counters.migrations_out + 1;
    let cdst = Machine.counters t.machine target in
    cdst.Counters.migrations_in <- cdst.Counters.migrations_in + 1;
    th.Thread.migrations <- th.Thread.migrations + 1;
    if Probe.active t.probe_ then
      Probe.emit t.probe_
        (Probe.Thread_moved
           {
             time = cs.clock;
             tid = th.Thread.id;
             from_core = src;
             to_core = target;
           });
    th.Thread.state <- Thread.Migrating;
    charge_busy t src send;
    let depart = cs.clock + send in
    schedule t ~time:depart (Release src);
    th.Thread.core <- target;
    let arrive = depart + wire in
    schedule t ~time:arrive
      (Arrive
         ( target,
           {
             thread = th;
             run =
               (fun () ->
                 th.Thread.state <- Thread.Runnable;
                 let cst = t.cores_.(target) in
                 charge_busy t target land_;
                 schedule t ~time:(cst.clock + land_)
                   (Run (target, fun () -> continue k ())));
           } ))
  end

(* The effect interpreter for one thread. Handlers never resume
   continuations synchronously for timed operations: they compute the
   cost, mutate machine state at the current virtual time (legal because
   the engine always runs the minimum-clock event first), and schedule the
   resumption. *)
let handler t th =
  let open Effect.Deep in
  let cfg = Machine.cfg t.machine in
  let effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option =
    function
    | Api.Read { addr; len } ->
        Some
          (fun k ->
            let cs = t.cores_.(th.Thread.core) in
            if Probe.active t.probe_ then
              Probe.emit t.probe_
                (Probe.Mem
                   {
                     time = cs.clock;
                     core = th.Thread.core;
                     tid = th.Thread.id;
                     kind = Probe.Load;
                     addr;
                     len;
                   });
            let cost =
              Machine.read t.machine ~core:th.Thread.core ~now:cs.clock ~addr
                ~len
            in
            charge_busy t th.Thread.core cost;
            schedule t ~time:(cs.clock + cost)
              (Run (th.Thread.core, fun () -> continue k cost)))
    | Api.Write { addr; len } ->
        Some
          (fun k ->
            let cs = t.cores_.(th.Thread.core) in
            if Probe.active t.probe_ then
              Probe.emit t.probe_
                (Probe.Mem
                   {
                     time = cs.clock;
                     core = th.Thread.core;
                     tid = th.Thread.id;
                     kind = Probe.Store;
                     addr;
                     len;
                   });
            let cost =
              Machine.write t.machine ~core:th.Thread.core ~now:cs.clock ~addr
                ~len
            in
            charge_busy t th.Thread.core cost;
            schedule t ~time:(cs.clock + cost)
              (Run (th.Thread.core, fun () -> continue k cost)))
    | Api.Compute cycles ->
        Some
          (fun k ->
            let cs = t.cores_.(th.Thread.core) in
            let cycles = Int.max cycles 0 in
            charge_busy t th.Thread.core cycles;
            schedule t ~time:(cs.clock + cycles)
              (Run (th.Thread.core, fun () -> continue k ())))
    | Api.Lock_acquire l ->
        Some
          (fun k ->
            let cs = t.cores_.(th.Thread.core) in
            let acquire_word ~now0 ~contended =
              (* Taking the lock writes its line (read-for-ownership). *)
              l.Spinlock.acquisitions <- l.Spinlock.acquisitions + 1;
              if Probe.active t.probe_ then
                Probe.emit t.probe_
                  (Probe.Lock_acquired
                     {
                       time = now0;
                       core = th.Thread.core;
                       tid = th.Thread.id;
                       lock =
                         {
                           Probe.lock_name = l.Spinlock.name;
                           lock_addr = l.Spinlock.addr;
                         };
                       contended;
                     });
              let cost =
                Machine.write t.machine ~core:th.Thread.core ~now:now0
                  ~addr:l.Spinlock.addr ~len:8
              in
              charge_busy t th.Thread.core cost;
              schedule t ~time:(now0 + cost)
                (Run (th.Thread.core, fun () -> continue k ()))
            in
            match l.Spinlock.owner with
            | None ->
                l.Spinlock.owner <- Some th.Thread.id;
                acquire_word ~now0:cs.clock ~contended:false
            | Some _ ->
                l.Spinlock.contended <- l.Spinlock.contended + 1;
                th.Thread.state <- Thread.Spinning;
                let attempt = cs.clock in
                Queue.add
                  {
                    Spinlock.thread = th;
                    attempt;
                    grant =
                      (fun gtime ->
                        (* Ownership was transferred at release time; we
                           resume on the waiter's core, charge the wait as
                           spin cycles, then pay for the lock-word write. *)
                        schedule t ~time:gtime
                          (Run
                             ( th.Thread.core,
                               fun () ->
                                 let cs = t.cores_.(th.Thread.core) in
                                 th.Thread.state <- Thread.Runnable;
                                 let c =
                                   Machine.counters t.machine th.Thread.core
                                 in
                                 c.Counters.spin_cycles <-
                                   c.Counters.spin_cycles + (cs.clock - attempt);
                                 acquire_word ~now0:cs.clock ~contended:true )));
                  }
                  l.Spinlock.waiters)
    | Api.Lock_release l ->
        Some
          (fun k ->
            let cs = t.cores_.(th.Thread.core) in
            if
              match l.Spinlock.owner with
              | Some o -> o <> th.Thread.id
              | None -> true
            then
              raise
                (Not_lock_owner
                   (Printf.sprintf "thread %d releasing %s it does not hold"
                      th.Thread.id l.Spinlock.name));
            if Probe.active t.probe_ then
              Probe.emit t.probe_
                (Probe.Lock_released
                   {
                     time = cs.clock;
                     core = th.Thread.core;
                     tid = th.Thread.id;
                     lock =
                       {
                         Probe.lock_name = l.Spinlock.name;
                         lock_addr = l.Spinlock.addr;
                       };
                   });
            let cost =
              Machine.write t.machine ~core:th.Thread.core ~now:cs.clock
                ~addr:l.Spinlock.addr ~len:8
            in
            charge_busy t th.Thread.core cost;
            let released_at = cs.clock + cost in
            (match Queue.take_opt l.Spinlock.waiters with
            | Some w ->
                (* Direct hand-off: no steal window between release and
                   the waiter's resumption. *)
                l.Spinlock.owner <- Some w.Spinlock.thread.Thread.id;
                w.Spinlock.grant released_at
            | None -> l.Spinlock.owner <- None);
            schedule t ~time:released_at
              (Run (th.Thread.core, fun () -> continue k ())))
    | Api.Migrate_to target ->
        Some
          (fun k ->
            move_thread t th ~target ~send:cfg.Config.migration_save
              ~wire:(cfg.Config.migration_xfer + (cfg.Config.poll_interval / 2))
              ~land_:cfg.Config.migration_restore k)
    | Api.Ship_to target ->
        (* Active message (Section 6.1): only the operation descriptor
           crosses; no context save/restore, no polling delay. *)
        Some
          (fun k ->
            move_thread t th ~target ~send:cfg.Config.amsg_send
              ~wire:cfg.Config.amsg_wire ~land_:cfg.Config.amsg_dispatch k)
    | Api.Yield ->
        Some
          (fun k ->
            let cs = t.cores_.(th.Thread.core) in
            Queue.add { thread = th; run = (fun () -> continue k ()) } cs.runq;
            schedule t ~time:cs.clock (Release th.Thread.core))
    | Api.Self -> Some (fun k -> continue k th)
    | Api.Now -> Some (fun k -> continue k t.cores_.(th.Thread.core).clock)
    | _ -> None
  in
  {
    retc =
      (fun () ->
        th.Thread.state <- Thread.Finished;
        t.live <- t.live - 1;
        if Probe.active t.probe_ then
          Probe.emit t.probe_
            (Probe.Thread_finished
               {
                 time = t.cores_.(th.Thread.core).clock;
                 core = th.Thread.core;
                 tid = th.Thread.id;
               });
        schedule t ~time:t.cores_.(th.Thread.core).clock
          (Release th.Thread.core));
    exnc = (fun e -> raise e);
    effc;
  }

let spawn t ~core ~name body =
  if core < 0 || core >= cores t then invalid_arg "Engine.spawn: bad core";
  let th = Thread.make ~id:t.next_thread_id ~name ~core in
  t.next_thread_id <- t.next_thread_id + 1;
  t.live <- t.live + 1;
  let cs = t.cores_.(core) in
  let start = Int.max t.last_time cs.clock in
  if Probe.active t.probe_ then
    Probe.emit t.probe_
      (Probe.Thread_spawned { time = start; core; tid = th.Thread.id; name });
  let r =
    { thread = th; run = (fun () -> Effect.Deep.match_with body () (handler t th)) }
  in
  Queue.add r cs.runq;
  schedule t ~time:start (Poke core);
  th

let at t ~time f =
  if time < t.last_time then invalid_arg "Engine.at: time is in the past";
  schedule t ~time (Control { f; daemon = false })

let rec reschedule_every t ~period f ~time =
  schedule t ~time
    (Control
       {
         daemon = true;
         f =
           (fun ~now ->
             f ~now;
             reschedule_every t ~period f ~time:(now + period));
       })

let every t ~period ?start f =
  if period <= 0 then invalid_arg "Engine.every: period must be positive";
  let time = match start with Some s -> s | None -> t.last_time + period in
  reschedule_every t ~period f ~time

let step t time ev =
  t.last_time <- Int.max t.last_time time;
  t.events <- t.events + 1;
  match ev with
  | Run (core, f) ->
      let cs = t.cores_.(core) in
      cs.clock <- Int.max cs.clock time;
      f ()
  | Release core ->
      let cs = t.cores_.(core) in
      cs.clock <- Int.max cs.clock time;
      cs.busy <- false;
      dispatch t cs
  | Poke core ->
      let cs = t.cores_.(core) in
      cs.clock <- Int.max cs.clock time;
      if not cs.busy then dispatch t cs
  | Arrive (core, r) ->
      let cs = t.cores_.(core) in
      cs.clock <- Int.max cs.clock time;
      (Queue.add r cs.runq [@alloc_ok "one queue cell per thread arrival"]);
      if not cs.busy then dispatch t cs
  | Control { f; _ } -> f ~now:time

let run ?until ?stop_when t =
  let stop = match stop_when with Some f -> f | None -> fun () -> false in
  let horizon = match until with Some u -> u | None -> max_int in
  let continue_ =
    ((ref true) [@alloc_ok "one cell per run call, not per event"])
  in
  while !continue_ do
    if t.nondaemon_pending = 0 then
      (* Only recurring monitors remain: the simulated program has
         finished (or deadlocked); ticking on would never terminate. *)
      continue_ := false
    else if Event_queue.is_empty t.queue then continue_ := false
    else begin
      (* min_time/pop_min rather than peek_time/pop: this is the innermost
         simulation loop and must not allocate per event. *)
      let time = Event_queue.min_time t.queue in
      if time > horizon then begin
        t.last_time <- Int.max t.last_time horizon;
        continue_ := false
      end
      else begin
        let ev = Event_queue.pop_min t.queue in
        if not (is_daemon ev) then
          t.nondaemon_pending <- t.nondaemon_pending - 1;
        step t time ev;
        if stop () then continue_ := false
      end
    end
  done

let finalize_idle t =
  Array.iter
    (fun cs ->
      if cs.idle_since >= 0 then begin
        let upto = Int.max cs.clock t.last_time in
        let c = Machine.counters t.machine cs.cid in
        c.Counters.idle_cycles <-
          c.Counters.idle_cycles + (upto - cs.idle_since);
        cs.idle_since <- upto
      end)
    t.cores_
