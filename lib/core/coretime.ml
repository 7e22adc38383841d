module Policy = Policy
module Object_table = Object_table
module Cache_packing = Cache_packing
module Clustering = Clustering
module Ownership = Ownership
module Rebalancer = Rebalancer

open O2_simcore
open O2_runtime

type frame = {
  obj : Object_table.obj option;
  write : bool;
  migrated_from : int option;
  snap_remote : int;
  snap_dram : int;
  snap_busy : int;
}

(* The per-thread stack of open operation frames lives on the thread
   itself (see {!Thread.ctx}): thread-local state needs no table. *)
type Thread.ctx += Frames of frame list

type stats = {
  mutable promotions : int;
  mutable replications : int;
  mutable op_migrations : int;
  mutable ops : int;
}

type t = {
  engine_ : Engine.t;
  policy_ : Policy.t;
  table_ : Object_table.t;
  clustering_ : Clustering.t;
  ownership_ : Ownership.t;
  rebalancer_ : Rebalancer.t;
  stats_ : stats;
}

let create ?(policy = Policy.default) engine () =
  (match Policy.validate policy with
  | Ok () -> ()
  | Error e -> invalid_arg ("Coretime.create: " ^ e));
  let machine = Engine.machine engine in
  let cfg = Machine.cfg machine in
  let budget =
    int_of_float
      (float_of_int (Config.per_core_budget cfg) *. policy.Policy.budget_fraction)
  in
  let table_ = Object_table.create ~cores:(Config.cores cfg) ~budget_per_core:budget in
  let rebalancer_ =
    Rebalancer.create ~probe:(Engine.probe engine) policy table_ machine
  in
  let t =
    {
      engine_ = engine;
      policy_ = policy;
      table_;
      clustering_ = Clustering.create ();
      ownership_ = Ownership.create ();
      rebalancer_;
      stats_ = { promotions = 0; replications = 0; op_migrations = 0; ops = 0 };
    }
  in
  if policy.Policy.enabled && policy.Policy.rebalance then
    Engine.every engine ~period:policy.Policy.rebalance_period (fun ~now ->
        Engine.finalize_idle engine;
        Rebalancer.step rebalancer_ ~now);
  t

let engine t = t.engine_
let policy t = t.policy_
let table t = t.table_
let clustering t = t.clustering_
let ownership t = t.ownership_
let rebalancer t = t.rebalancer_

let stats t = t.stats_

let register t ?pid ~base ~size ~name () =
  Object_table.register t.table_ ?pid ~base ~size ~name ()

let push_frame th frame =
  let existing =
    match th.Thread.ctx with Frames fs -> fs | _ -> []
  in
  th.Thread.ctx <- Frames (frame :: existing)

let pop_frame th =
  match th.Thread.ctx with
  | Frames (frame :: rest) ->
      th.Thread.ctx <- Frames rest;
      frame
  | _ -> invalid_arg "Coretime.ct_end: no operation in progress for this thread"

let parent_obj th =
  match th.Thread.ctx with
  | Frames ({ obj = Some o; _ } :: _) -> Some o
  | _ -> None

(* Should a hot read-only object be left for the hardware to replicate
   instead of being packed onto one home core? (Section 6.2 tradeoff.) *)
let replicate_instead t (o : Object_table.obj) =
  t.policy_.Policy.replicate_read_only
  && o.Object_table.writes = 0
  && (o.Object_table.replicated
     || o.Object_table.ops_period >= t.policy_.Policy.replicate_min_ops)

let maybe_promote t (o : Object_table.obj) =
  let p = t.policy_ in
  if
    Option.is_none o.Object_table.home
    && o.Object_table.ops_total >= p.Policy.promote_min_ops
    && o.Object_table.ewma_misses > p.Policy.promote_threshold
  then
    if replicate_instead t o then begin
      o.Object_table.replicated <- true;
      t.stats_.replications <- t.stats_.replications + 1;
      let pr = Engine.probe t.engine_ in
      if Probe.active pr then
        Probe.emit pr
          (Probe.Decision
             {
               time = Api.now ();
               decision =
                 Probe.Promotion_replicated
                   {
                     obj_base = o.Object_table.base;
                     name = o.Object_table.name;
                     seq = o.Object_table.seq;
                     ops_period = o.Object_table.ops_period;
                     min_ops = t.policy_.Policy.replicate_min_ops;
                   };
             })
    end
    else begin
      let used =
        Array.init
          (Engine.cores t.engine_)
          (fun c -> Object_table.used t.table_ c)
      in
      let clustered =
        if p.Policy.clustering then
          Clustering.preferred_core t.clustering_ t.table_
            ~min_coaccess:p.Policy.cluster_min_coaccess o
        else None
      in
      let core =
        match clustered with
        | Some _ as c -> c
        | None ->
            (* the promotion counter as nonce: successive Random_fit
               placements land on different cores, deterministically *)
            Cache_packing.place_one ~nonce:t.stats_.promotions
              ~placement:p.Policy.placement
              ~budget:(Object_table.budget t.table_)
              ~used ~bytes:o.Object_table.size ()
      in
      match core with
      | Some core ->
          Object_table.assign t.table_ o core;
          t.stats_.promotions <- t.stats_.promotions + 1;
          let pr = Engine.probe t.engine_ in
          if Probe.active pr then
            Probe.emit pr
              (Probe.Decision
                 {
                   time = Api.now ();
                   decision =
                     Probe.Promoted
                       {
                         obj_base = o.Object_table.base;
                         name = o.Object_table.name;
                         seq = o.Object_table.seq;
                         assigns = o.Object_table.assigns;
                         core;
                         placement =
                           (match p.Policy.placement with
                           | Policy.First_fit -> "first-fit"
                           | Policy.Least_loaded -> "least-loaded"
                           | Policy.Random_fit _ -> "random-fit");
                         clustered = clustered <> None;
                         ewma_misses = o.Object_table.ewma_misses;
                         threshold = p.Policy.promote_threshold;
                         ops_total = o.Object_table.ops_total;
                         min_ops = p.Policy.promote_min_ops;
                         bytes = o.Object_table.size;
                         budget = Object_table.budget t.table_;
                         used_after = Object_table.used t.table_ core;
                         fitting_cores =
                           Cache_packing.count_fits
                             ~budget:(Object_table.budget t.table_)
                             ~used ~bytes:o.Object_table.size;
                       };
                 })
      | None -> ()  (* no cache has space: hardware keeps managing it *)
    end

(* Publish operation boundaries so the analysis layer can check nesting
   discipline and home-core affinity (no-op without subscribers). *)
let emit_op_requested t th ~addr =
  let p = Engine.probe t.engine_ in
  if Probe.active p then
    Probe.emit p
      (Probe.Op_requested
         { time = Api.now (); core = th.Thread.core; tid = th.Thread.id; addr })

let emit_op_started t th ~addr ~home =
  let p = Engine.probe t.engine_ in
  if Probe.active p then
    Probe.emit p
      (Probe.Op_started
         {
           time = Api.now ();
           core = th.Thread.core;
           tid = th.Thread.id;
           addr;
           home;
         })

let emit_op_ended t th =
  let p = Engine.probe t.engine_ in
  if Probe.active p then
    Probe.emit p
      (Probe.Op_ended
         { time = Api.now (); core = th.Thread.core; tid = th.Thread.id })

let ct_start t ?(write = false) addr =
  let th = Api.self () in
  emit_op_requested t th ~addr;
  if not t.policy_.Policy.enabled then begin
    push_frame th
      {
        obj = None;
        write;
        migrated_from = None;
        snap_remote = 0;
        snap_dram = 0;
        snap_busy = 0;
      };
    emit_op_started t th ~addr ~home:None
  end
  else begin
    Api.compute t.policy_.Policy.ct_overhead;
    let obj = Object_table.find t.table_ addr in
    (match (obj, parent_obj th) with
    | Some o, Some p ->
        Clustering.note_coaccess t.clustering_ o.Object_table.base
          p.Object_table.base
    | _ -> ());
    (match obj with Some o -> maybe_promote t o | None -> ());
    (* Read the home once: migrating yields, and the rebalancer may move
       the object meanwhile — the operation still runs where we decided. *)
    let home_target =
      match obj with Some o -> o.Object_table.home | None -> None
    in
    let migrated_from =
      match home_target with
      | Some home when home <> th.Thread.core ->
          let from = th.Thread.core in
          t.stats_.op_migrations <- t.stats_.op_migrations + 1;
          if t.policy_.Policy.op_shipping then Api.ship_to home
          else Api.migrate_to home;
          Some from
      | _ -> None
    in
    let c = Machine.counters (Engine.machine t.engine_) th.Thread.core in
    push_frame th
      {
        obj;
        write;
        migrated_from;
        snap_remote = c.Counters.remote_hits;
        snap_dram = c.Counters.dram_loads;
        snap_busy = c.Counters.busy_cycles;
      };
    emit_op_started t th ~addr ~home:home_target
  end

let ct_end t =
  let th = Api.self () in
  let frame = pop_frame th in
  emit_op_ended t th;
  let machine = Engine.machine t.engine_ in
  let c = Machine.counters machine th.Thread.core in
  c.Counters.ops_completed <- c.Counters.ops_completed + 1;
  t.stats_.ops <- t.stats_.ops + 1;
  if t.policy_.Policy.enabled then begin
    (match frame.obj with
    | Some o ->
        let misses =
          c.Counters.remote_hits - frame.snap_remote
          + (c.Counters.dram_loads - frame.snap_dram)
        in
        let alpha = t.policy_.Policy.ewma_alpha in
        o.Object_table.ewma_misses <-
          (alpha *. float_of_int misses)
          +. ((1.0 -. alpha) *. o.Object_table.ewma_misses);
        (* through the table so the monitor's active-set index sees it *)
        Object_table.note_op t.table_ o;
        if frame.write then begin
          o.Object_table.writes <- o.Object_table.writes + 1;
          (* a written object is no longer a replication candidate *)
          o.Object_table.replicated <- false
        end;
        Ownership.charge t.ownership_ ~pid:o.Object_table.owner_pid
          ~cycles:(c.Counters.busy_cycles - frame.snap_busy)
    | None -> ());
    match frame.migrated_from with
    | Some home_core when t.policy_.Policy.migrate_back ->
        if t.policy_.Policy.op_shipping then Api.ship_to home_core
        else Api.migrate_to home_core
    | Some _ | None -> ()
  end

let with_op t ?write addr f =
  ct_start t ?write addr;
  let result = f () in
  ct_end t;
  result

(* Current table contents per core (cores with none omitted). *)
let assignments t =
  let cores = Engine.cores t.engine_ in
  List.filter_map
    (fun core ->
      match Object_table.assigned t.table_ ~core with
      | [] -> None
      | objs -> Some (core, objs))
    (List.init cores Fun.id)

let pp_assignments ppf t =
  List.iter
    (fun (core, objs) ->
      Format.fprintf ppf "core %2d (%7d bytes): %s@." core
        (Object_table.used t.table_ core)
        (String.concat ", "
           (List.map (fun o -> o.Object_table.name) objs)))
    (assignments t)
