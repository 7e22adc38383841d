open O2_simcore

type stats = {
  mutable periods : int;
  mutable demotions : int;
  mutable moves : int;
  mutable displacements : int;
  mutable replications : int;
}

(* Everything the monitor needs per period is preallocated here: counter
   snapshots and deltas are diffed in place, the per-core ratio arrays are
   reused, and object candidates are gathered into a growable scratch
   array and sorted in place. A quiet period — nothing active, no
   pressure, no saturated core — runs through [step] without a single
   minor allocation (pinned by suite_hotpath), and no phase ever walks the
   full object table: cost is proportional to the assigned/active sets. *)
type t = {
  policy : Policy.t;
  table : Object_table.t;
  machine : Machine.t;
  probe : O2_runtime.Probe.t option;
  last : Counters.t array;  (* previous-period snapshot, overwritten in place *)
  deltas : Counters.t array;  (* events of the period being examined *)
  busy_ : float array;
  idle_ : float array;
  fsum : float array;  (* busy-ratio running sum (scratch keeps it unboxed) *)
  isum : int array;  (* [| dram sum; overloaded count |] *)
  dram_ : int array;
  over_ : bool array;
  recv_ : int array;  (* receiver cores, most idle first *)
  mutable cand_ : Object_table.obj array;  (* candidate gather/sort scratch *)
  mutable cand_len : int;
  mutable last_now : int;
  stats_ : stats;
}

let create ?probe policy table machine =
  let counters = Machine.all_counters machine in
  let n = Array.length counters in
  {
    policy;
    table;
    machine;
    probe;
    last = Array.map Counters.copy counters;
    deltas = Array.init n (fun _ -> Counters.create ());
    busy_ = Array.make n 0.0;
    idle_ = Array.make n 0.0;
    fsum = Array.make 1 0.0;
    isum = Array.make 2 0;
    dram_ = Array.make n 0;
    over_ = Array.make n false;
    recv_ = Array.make n 0;
    cand_ = [||];
    cand_len = 0;
    last_now = 0;
    stats_ =
      { periods = 0; demotions = 0; moves = 0; displacements = 0; replications = 0 };
  }

let stats t = t.stats_

(* Decision provenance: each monitor action announces what it did and why
   through the probe. Producers test [decisions_on] first so building the
   record costs nothing when nobody listens (the usual case; pinned by
   suite_hotpath's guarded-emit probe). *)
let decisions_on t =
  match t.probe with Some p -> O2_runtime.Probe.active p | None -> false

let emit_decision t ~now decision =
  match t.probe with
  | Some p -> O2_runtime.Probe.emit p (O2_runtime.Probe.Decision { time = now; decision })
  | None -> ()

(* Candidate scratch: push, then sort in place. The order is total —
   most-operated-on first, registration sequence breaking ties — which is
   exactly what the old stable sort over the registration-ordered table
   produced, so sweep rows stay bit-identical. *)
let push_cand t o =
  if t.cand_len = Array.length t.cand_ then begin
    let grown = Array.make (max 16 (2 * t.cand_len)) o in
    Array.blit t.cand_ 0 grown 0 t.cand_len;
    t.cand_ <- grown
  end;
  t.cand_.(t.cand_len) <- o;
  t.cand_len <- t.cand_len + 1

let hotter (a : Object_table.obj) (b : Object_table.obj) =
  a.Object_table.ops_period > b.Object_table.ops_period
  || (a.Object_table.ops_period = b.Object_table.ops_period
     && a.Object_table.seq < b.Object_table.seq)

let sort_cands t =
  for i = 1 to t.cand_len - 1 do
    let key = t.cand_.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && hotter key t.cand_.(!j) do
      t.cand_.(!j + 1) <- t.cand_.(!j);
      decr j
    done;
    t.cand_.(!j + 1) <- key
  done

(* Hottest [top] candidates to the front, in order; cheaper than a full
   sort when the active set is larger than the bounded work budget. *)
let select_top t top =
  let top = min top t.cand_len in
  for i = 0 to top - 1 do
    let best = ref i in
    for j = i + 1 to t.cand_len - 1 do
      if hotter t.cand_.(j) t.cand_.(!best) then best := j
    done;
    let tmp = t.cand_.(i) in
    t.cand_.(i) <- t.cand_.(!best);
    t.cand_.(!best) <- tmp
  done;
  top

(* Demotion exists to free budget, so it only runs under budget pressure;
   an assignment that merely went quiet keeps its home (rearranging, not
   forgetting, is the monitor's job — Section 4). The threshold leaves
   room for a reasonable burst of new promotions. Written out over ints so
   the every-period check boxes nothing. *)
let demotion_pressure t =
  float_of_int (Object_table.total_used t.table)
  /. float_of_int (Object_table.budget t.table * Object_table.cores t.table)
  > 0.8

(* Only assigned objects can be demoted, so walk the per-core assignment
   lists — O(assigned), not O(table) — and let quiet ones age. *)
let demote_stale t ~now =
  for core = 0 to Object_table.cores t.table - 1 do
    Object_table.iter_assigned t.table ~core (fun o ->
        let open Object_table in
        if o.ops_period = 0 then begin
          o.idle_periods <- o.idle_periods + 1;
          if o.idle_periods >= t.policy.Policy.demote_idle_periods then begin
            if decisions_on t then
              emit_decision t ~now
                (O2_runtime.Probe.Demoted
                   {
                     obj_base = o.base;
                     name = o.name;
                     seq = o.seq;
                     core;
                     idle_periods = o.idle_periods;
                     threshold_periods = t.policy.Policy.demote_idle_periods;
                   });
            Object_table.unassign t.table o;
            o.idle_periods <- 0;
            t.stats_.demotions <- t.stats_.demotions + 1
          end
        end
        else o.idle_periods <- 0)
  done

let move_from_saturated t ~now period =
  let ncores = Array.length t.deltas in
  (* Per-core ratios into reused arrays; sums ride along in scratch cells
     so nothing is boxed. Summation order matches the old left fold. *)
  t.fsum.(0) <- 0.0;
  t.isum.(0) <- 0;
  for core = 0 to ncores - 1 do
    let d = t.deltas.(core) in
    let b =
      if period <= 0 then 0.0
      else
        float_of_int (d.Counters.busy_cycles + d.Counters.spin_cycles)
        /. float_of_int period
    in
    t.busy_.(core) <- b;
    t.idle_.(core) <-
      (if period <= 0 then 0.0
       else float_of_int d.Counters.idle_cycles /. float_of_int period);
    t.dram_.(core) <- d.Counters.dram_loads;
    t.fsum.(0) <- t.fsum.(0) +. b;
    t.isum.(0) <- t.isum.(0) + d.Counters.dram_loads
  done;
  let avg_busy = t.fsum.(0) /. float_of_int ncores in
  let avg_dram = float_of_int t.isum.(0) /. float_of_int ncores in
  (* The paper's trigger (Section 4): a core is a source when it is rarely
     idle OR often loads from DRAM (too many objects packed into its
     cache); receivers have idle cycles and little memory pressure. *)
  t.isum.(1) <- 0;
  for core = 0 to ncores - 1 do
    let over =
      t.busy_.(core) > t.policy.Policy.overload_busy
      || t.busy_.(core) -. avg_busy > 0.2  (* far above the mean: queues build *)
      || (avg_dram > 0.0
         && float_of_int t.dram_.(core) > 2.0 *. avg_dram
         && t.dram_.(core) > 1000
         && t.busy_.(core) > avg_busy)
    in
    t.over_.(core) <- over;
    if over then t.isum.(1) <- t.isum.(1) + 1
  done;
  if t.isum.(1) > 0 then begin
    (* Receivers: idle cores, most idle first; rotate through them. *)
    let n_recv = ref 0 in
    for core = 0 to ncores - 1 do
      if
        t.idle_.(core) > t.policy.Policy.idle_avail
        && float_of_int t.dram_.(core) <= avg_dram
      then begin
        t.recv_.(!n_recv) <- core;
        incr n_recv
      end
    done;
    for i = 1 to !n_recv - 1 do
      let key = t.recv_.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && t.idle_.(t.recv_.(!j)) < t.idle_.(key) do
        t.recv_.(!j + 1) <- t.recv_.(!j);
        decr j
      done;
      t.recv_.(!j + 1) <- key
    done;
    if !n_recv > 0 then begin
      let next_recv = ref 0 in
      let moves_left = ref t.policy.Policy.max_moves_per_rebalance in
      for core = 0 to ncores - 1 do
        if t.over_.(core) then begin
          (* This core's operated-on objects, hottest first: gathered from
             its assignment list at the moment it is processed, so earlier
             cores' moves are visible exactly as they were to the old
             full-scan filter. *)
          t.cand_len <- 0;
          let core_ops = ref 0 in
          Object_table.iter_assigned t.table ~core (fun o ->
              core_ops := !core_ops + o.Object_table.ops_period;
              if o.Object_table.ops_period > 0 then push_cand t o);
          sort_cands t;
          let core_ops = !core_ops in
          (* Shed enough operations to bring this core back to the mean; a
             memory-pressure source sheds at least a quarter of its load
             even when its busy ratio is unremarkable. *)
          let busy_shed =
            if t.busy_.(core) > 0.0 then
              int_of_float
                (ceil
                   (float_of_int core_ops
                   *. ((t.busy_.(core) -. avg_busy) /. t.busy_.(core))))
            else 0
          in
          let shed_target = max busy_shed (core_ops / 4) in
          let shed = ref shed_target in
          for ci = 0 to t.cand_len - 1 do
            let o = t.cand_.(ci) in
            if !shed > 0 && !moves_left > 0 && o.Object_table.ops_period > 0
            then begin
              (* Try each receiver once, starting from the rotation point. *)
              let n = !n_recv in
              let rec try_receiver k =
                if k >= n then None
                else begin
                  let c = t.recv_.((!next_recv + k) mod n) in
                  if c <> core && Object_table.fits t.table ~core:c o then
                    Some (c, k)
                  else try_receiver (k + 1)
                end
              in
              match try_receiver 0 with
              | None -> ()
              | Some (c, k) ->
                  if decisions_on t then begin
                    (* The candidate this one beat: the next-hottest not yet
                       considered, in the same (ops desc, seq asc) order the
                       selection walked. *)
                    let ru =
                      if ci + 1 < t.cand_len then Some t.cand_.(ci + 1)
                      else None
                    in
                    emit_decision t ~now
                      (O2_runtime.Probe.Moved
                         {
                           obj_base = o.Object_table.base;
                           name = o.Object_table.name;
                           seq = o.Object_table.seq;
                           assigns = o.Object_table.assigns + 1;
                           ops_period = o.Object_table.ops_period;
                           from_core = core;
                           to_core = c;
                           src_busy = t.busy_.(core);
                           avg_busy;
                           src_dram = t.dram_.(core);
                           avg_dram;
                           dst_idle = t.idle_.(c);
                           runner_up_seq =
                             (match ru with
                             | Some r -> r.Object_table.seq
                             | None -> -1);
                           runner_up_name =
                             (match ru with
                             | Some r -> r.Object_table.name
                             | None -> "");
                           runner_up_ops =
                             (match ru with
                             | Some r -> r.Object_table.ops_period
                             | None -> 0);
                           tie_break =
                             (match ru with
                             | Some r ->
                                 r.Object_table.ops_period
                                 = o.Object_table.ops_period
                             | None -> false);
                           shed_before = !shed;
                           shed_target;
                           moves_left = !moves_left;
                         })
                  end;
                  Object_table.assign t.table o c;
                  next_recv := (!next_recv + k + 1) mod n;
                  shed := !shed - o.Object_table.ops_period;
                  decr moves_left;
                  t.stats_.moves <- t.stats_.moves + 1
            end
          done
        end
      done
    end
  end

(* Section 6.2 replacement policy: when the working set exceeds on-chip
   memory, prefer to keep the most frequently accessed objects assigned.
   Displace an assigned object when an unassigned one saw at least twice
   its operations this period. Unassigned-but-operated-on objects are by
   definition in the active set, so the candidates come from there — never
   from a table scan. *)
let displace_for_hotter t ~now =
  t.cand_len <- 0;
  Object_table.iter_active t.table (fun o ->
      if Option.is_none o.Object_table.home && o.Object_table.ops_period > 0
      then push_cand t o);
  let top = select_top t 4 (* bounded work per period *) in
  for hi = 0 to top - 1 do
    let hot = t.cand_.(hi) in
    if not (Object_table.can_place t.table hot) then begin
      (* find the coldest assigned victim clearly colder than [hot]:
         minimal (ops_period, seq), the object the old registration-order
         fold would have kept *)
      let victim = ref None in
      for core = 0 to Object_table.cores t.table - 1 do
        Object_table.iter_assigned t.table ~core (fun o ->
            if
              2 * o.Object_table.ops_period <= hot.Object_table.ops_period
              && o.Object_table.size >= hot.Object_table.size
            then
              match !victim with
              | Some v
                when v.Object_table.ops_period < o.Object_table.ops_period
                     || (v.Object_table.ops_period = o.Object_table.ops_period
                        && v.Object_table.seq < o.Object_table.seq) ->
                  ()
              | _ -> victim := Some o)
      done;
      match !victim with
      | Some v ->
          let core = Option.get v.Object_table.home in
          Object_table.unassign t.table v;
          let placed = Object_table.fits t.table ~core hot in
          if placed then begin
            Object_table.assign t.table hot core;
            t.stats_.displacements <- t.stats_.displacements + 1
          end;
          if decisions_on t then
            emit_decision t ~now
              (O2_runtime.Probe.Displaced
                 {
                   hot_base = hot.Object_table.base;
                   hot_name = hot.Object_table.name;
                   hot_seq = hot.Object_table.seq;
                   hot_ops = hot.Object_table.ops_period;
                   victim_base = v.Object_table.base;
                   victim_name = v.Object_table.name;
                   victim_seq = v.Object_table.seq;
                   victim_ops = v.Object_table.ops_period;
                   core;
                   placed;
                 })
      | None -> ()
    end
  done

(* Section 6.2 reconsideration: an object promoted before its popularity
   was evident may be better replicated by the hardware. Un-schedule hot
   read-only assignments — necessarily assigned, so the per-core lists
   hold every candidate; the [replicated] flag keeps promotion away. *)
let release_hot_read_only t ~now =
  for core = 0 to Object_table.cores t.table - 1 do
    Object_table.iter_assigned t.table ~core (fun o ->
        let open Object_table in
        if
          o.writes = 0 && o.ops_period >= t.policy.Policy.replicate_min_ops
        then begin
          if decisions_on t then
            emit_decision t ~now
              (O2_runtime.Probe.Released
                 {
                   obj_base = o.base;
                   name = o.name;
                   seq = o.seq;
                   core;
                   ops_period = o.ops_period;
                   min_ops = t.policy.Policy.replicate_min_ops;
                 });
          Object_table.unassign t.table o;
          o.replicated <- true;
          t.stats_.replications <- t.stats_.replications + 1
        end)
  done

let step t ~now =
  let current = Machine.all_counters t.machine in
  let n = Array.length current in
  for i = 0 to n - 1 do
    Counters.diff_into t.deltas.(i) current.(i) ~since:t.last.(i)
  done;
  let period = now - t.last_now in
  let moves0 = t.stats_.moves and demotions0 = t.stats_.demotions in
  t.stats_.periods <- t.stats_.periods + 1;
  if demotion_pressure t then demote_stale t ~now;
  if t.policy.Policy.replicate_read_only then release_hot_read_only t ~now;
  if t.policy.Policy.evict_for_hotter then displace_for_hotter t ~now;
  if period > 0 then move_from_saturated t ~now period;
  (* End of period: reset op counts on exactly the objects that have any,
     instead of sweeping the whole table. *)
  Object_table.drain_active t.table;
  for i = 0 to n - 1 do
    Counters.copy_into t.last.(i) current.(i)
  done;
  t.last_now <- now;
  (* Announce the period so invariant checkers can audit the table right
     after the monitor mutated it. *)
  match t.probe with
  | Some p when O2_runtime.Probe.active p ->
      O2_runtime.Probe.emit p
        ((O2_runtime.Probe.Rebalanced
            {
              time = now;
              moves = t.stats_.moves - moves0;
              demotions = t.stats_.demotions - demotions0;
            })
        [@alloc_ok "guarded by Probe.active: allocates only when observed"])
  | Some _ | None -> ()
