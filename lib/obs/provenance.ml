open O2_runtime

type record = { time : int; decision : Probe.decision }

type t = { ring : record Ring.t }

let on_event t ev =
  match ev with
  | Probe.Decision { time; decision } -> Ring.push t.ring { time; decision }
  | _ -> ()

let attach ?(capacity = 4096) engine =
  let t = { ring = Ring.create ~capacity } in
  Probe.subscribe (Engine.probe engine) (on_event t);
  t

let records t = Ring.to_list t.ring
let count t = Ring.length t.ring
let total t = Ring.total t.ring
let dropped t = Ring.dropped t.ring

(* One decision, fully explained: inputs the monitor saw, the score that
   won, the tie-break, and the action taken — each on its own line so the
   --explain report reads as an argument, not a log line. *)
let pp_record ppf { time; decision } =
  match decision with
  | Probe.Promoted
      {
        obj_base;
        name;
        seq;
        assigns;
        core;
        placement;
        clustered;
        ewma_misses;
        threshold;
        ops_total;
        min_ops;
        bytes;
        budget;
        used_after;
        fitting_cores;
      } ->
      Format.fprintf ppf
        "[t=%d] promote %s (seq %d, 0x%x) -> core %d@\n\
        \  inputs: miss EWMA %.3f > threshold %.3f; ops_total %d >= %d@\n\
        \  choice: %s placement%s; %d core(s) had %d B free under budget %d@\n\
        \  action: assigned to core %d (assignment #%d); core now uses %d B"
        time name seq obj_base core ewma_misses threshold ops_total min_ops
        placement
        (if clustered then " overridden by co-access clustering" else "")
        fitting_cores bytes budget core assigns used_after
  | Probe.Promotion_replicated { obj_base; name; seq; ops_period; min_ops } ->
      Format.fprintf ppf
        "[t=%d] leave %s (seq %d, 0x%x) to hardware replication@\n\
        \  inputs: read-only; ops this period %d >= replicate threshold %d@\n\
        \  action: not promoted; hardware caches copies wherever it is read"
        time name seq obj_base ops_period min_ops
  | Probe.Moved
      {
        obj_base;
        name;
        seq;
        assigns;
        ops_period;
        from_core;
        to_core;
        src_busy;
        avg_busy;
        src_dram;
        avg_dram;
        dst_idle;
        runner_up_seq;
        runner_up_name;
        runner_up_ops;
        tie_break;
        shed_before;
        shed_target;
        moves_left;
      } ->
      Format.fprintf ppf
        "[t=%d] move %s (seq %d, 0x%x): core %d -> core %d@\n\
        \  inputs: src busy %.2f (machine avg %.2f); src DRAM loads %d (avg \
         %.1f); dst idle %.2f@\n\
        \  score: ops this period %d%s@\n\
        \  action: reassigned (assignment #%d); %d of %d ops left to shed, %d \
         move(s) left this rebalance"
        time name seq obj_base from_core to_core src_busy avg_busy src_dram
        avg_dram dst_idle ops_period
        (if runner_up_seq >= 0 then
           Format.asprintf
             "; beat runner-up %s (seq %d, ops %d)%s" runner_up_name
             runner_up_seq runner_up_ops
             (if tie_break then " — tie broken by registration order" else "")
         else "; no runner-up candidate")
        assigns
        (max 0 (shed_before - ops_period))
        shed_target (moves_left - 1)
  | Probe.Demoted { obj_base; name; seq; core; idle_periods; threshold_periods }
    ->
      Format.fprintf ppf
        "[t=%d] demote %s (seq %d, 0x%x) from core %d@\n\
        \  inputs: idle %d consecutive monitor period(s) >= threshold %d, \
         under budget pressure@\n\
        \  action: unassigned; its budget bytes are free for hotter objects"
        time name seq obj_base core idle_periods threshold_periods
  | Probe.Displaced
      {
        hot_base;
        hot_name;
        hot_seq;
        hot_ops;
        victim_base;
        victim_name;
        victim_seq;
        victim_ops;
        core;
        placed;
      } ->
      Format.fprintf ppf
        "[t=%d] displace %s (seq %d, 0x%x) from core %d for %s (seq %d, 0x%x)@\n\
        \  inputs: victim saw %d op(s) this period, challenger %d (>= 2x), no \
         core had free budget@\n\
        \  action: victim unassigned; challenger %s" time victim_name victim_seq
        victim_base core hot_name hot_seq hot_base victim_ops hot_ops
        (if placed then Printf.sprintf "assigned to core %d" core
         else "still did not fit")
  | Probe.Released { obj_base; name; seq; core; ops_period; min_ops } ->
      Format.fprintf ppf
        "[t=%d] release %s (seq %d, 0x%x) from core %d to hardware replication@\n\
        \  inputs: read-only; ops this period %d >= replicate threshold %d@\n\
        \  action: unassigned and marked replicated; promotion will leave it \
         alone"
        time name seq obj_base core ops_period min_ops

let render t =
  let buf = Buffer.create 4096 in
  Printf.ksprintf (Buffer.add_string buf)
    "-- decision provenance: showing %d of %d decision(s) (%d dropped) --\n"
    (count t) (total t) (dropped t);
  Ring.iter t.ring (fun r ->
      Buffer.add_string buf (Format.asprintf "%a" pp_record r);
      Buffer.add_char buf '\n');
  Buffer.contents buf
