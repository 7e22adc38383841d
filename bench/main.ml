(* The benchmark harness.

   Default invocation regenerates every table and figure of the paper plus
   the Section 4/6 ablations, printing paper-shaped rows (see
   EXPERIMENTS.md for the mapping). `--quick` shrinks windows and ladders;
   positional arguments select experiments by id; `--fig4-json` times the
   quick Figure 4(a) sweep instead. Native ops/sec come from
   perfbench/run.py, the repository's one benchmark protocol. *)

let experiments ~quick ~jobs ids =
  let ppf = Format.std_formatter in
  Format.fprintf ppf
    "o2sched benchmark harness: CoreTime (HotOS 2009) reproduction@.";
  Format.fprintf ppf "machine under test: %a@.@." O2_simcore.Config.pp
    O2_simcore.Config.amd16;
  let ids = if ids = [] then O2_experiments.Registry.ids () else ids in
  match O2_experiments.Registry.run_ids ~quick ~jobs ppf ids with
  | Ok () -> 0
  | Error msg ->
      prerr_endline ("bench: " ^ msg);
      1

(* ------------------------------------------------------------------ *)
(* Figure 4 wall-clock: the harness-parallelism headline number         *)

(* Times the quick Figure 4(a) sweep [fig4_trials] times each at jobs=1
   and jobs=N, alternating, and checks every sweep's rows are
   bit-identical to the first (the determinism contract of
   Harness.run_cells). Each wall-clock is written as the median with its
   min and max, beside the host core count. The JSON is a CI artifact, so
   the sweep time can be trended across commits. *)
let fig4_trials = 3

let run_fig4_json ~jobs path =
  let sweep jobs =
    let t0 = Unix.gettimeofday () in
    let rows =
      O2_experiments.Figure4.sweep ~jobs ~quick:true ~oscillation:None ()
    in
    (rows, Unix.gettimeofday () -. t0)
  in
  let trials = List.init fig4_trials (fun _ -> (sweep 1, sweep jobs)) in
  let rows = fst (fst (List.hd trials)) in
  let identical =
    List.for_all (fun ((r1, _), (rn, _)) -> r1 = rows && rn = rows) trials
  in
  let spread pick =
    let ts = List.sort Float.compare (List.map pick trials) in
    (List.nth ts (fig4_trials / 2), List.hd ts, List.nth ts (fig4_trials - 1))
  in
  let med_seq, min_seq, max_seq = spread (fun ((_, t), _) -> t) in
  let med_par, min_par, max_par = spread (fun (_, (_, t)) -> t) in
  let seconds_json key (med, lo, hi) =
    Printf.sprintf
      "  \"%s\": {\"median\": %.3f, \"min\": %.3f, \"max\": %.3f},"
      key med lo hi
  in
  let row_json r =
    Printf.sprintf
      "    {\"kb\": %d, \"without_ct_kres\": %.3f, \"with_ct_kres\": %.3f}"
      r.O2_experiments.Figure4.kb
      r.O2_experiments.Figure4.without_ct.O2_experiments.Harness.kres_per_sec
      r.O2_experiments.Figure4.with_ct.O2_experiments.Harness.kres_per_sec
  in
  let json =
    String.concat "\n"
      ([
         "{";
         "  \"benchmark\": \"fig4a quick sweep wall-clock\",";
         Printf.sprintf "  \"available_cores\": %d,"
           (O2_native.Native_pool.default_jobs ());
         Printf.sprintf "  \"trials\": %d," fig4_trials;
         seconds_json "seconds_jobs1" (med_seq, min_seq, max_seq);
         Printf.sprintf "  \"jobs\": %d," jobs;
         seconds_json "seconds_jobsN" (med_par, min_par, max_par);
         Printf.sprintf "  \"speedup\": %.2f,"
           (if med_par > 0.0 then med_seq /. med_par else nan);
         Printf.sprintf "  \"rows_bit_identical\": %b," identical;
         "  \"rows\": [";
       ]
      @ [ String.concat ",\n" (List.map row_json rows) ]
      @ [ "  ]"; "}"; "" ])
  in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf
    "fig4a quick sweep, median of %d [min, max]: %.2fs [%.2f, %.2f] at \
     jobs=1, %.2fs [%.2f, %.2f] at jobs=%d\n"
    fig4_trials med_seq min_seq max_seq med_par min_par max_par jobs;
  Printf.printf "rows bit-identical across all %d sweeps: %b\n"
    (2 * fig4_trials) identical;
  Printf.printf "wrote %s\n" path;
  if identical then 0 else 1

let usage () =
  prerr_endline
    "usage: bench [--quick] [--jobs N] [--fig4-json [FILE]] [EXPERIMENT-ID...]";
  2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = ref false in
  let fig4_json = ref None in
  let jobs = ref (O2_native.Native_pool.default_jobs ()) in
  let ids = ref [] in
  let bad = ref false in
  let rec parse = function
    | [] -> ()
    | ("--quick" | "-q") :: rest ->
        quick := true;
        parse rest
    | "--fig4-json" :: path :: rest
      when String.length path > 0 && path.[0] <> '-' ->
        fig4_json := Some path;
        parse rest
    | "--fig4-json" :: rest ->
        fig4_json := Some "BENCH_fig4.json";
        parse rest
    | ("--jobs" | "-j") :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := n;
            parse rest
        | _ ->
            bad := true)
    | a :: rest when String.length a > 0 && a.[0] = '-' ->
        prerr_endline ("bench: unknown option " ^ a);
        bad := true;
        ignore rest
    | a :: rest ->
        ids := !ids @ [ a ];
        parse rest
  in
  parse args;
  if !bad then exit (usage ());
  let jobs = O2_native.Native_pool.clamped ~what:"--jobs" !jobs in
  exit
    (match !fig4_json with
    | Some path ->
        (* at least 2 so the parallel leg exercises real domains even on
           a single-core machine *)
        run_fig4_json ~jobs:(max 2 jobs) path
    | None -> experiments ~quick:!quick ~jobs !ids)
