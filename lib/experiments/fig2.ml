open O2_simcore
open O2_workload

type snapshot = {
  scheduler : string;
  per_cache : (string * string list) list;
  off_chip : string list;
  distinct_lines : int;
  throughput : float;
}

(* The toy machine's exclusive caches hold 36 KB in aggregate; 32 1-KB
   directories make partitioning matter the way the paper's twenty do
   against its (smaller) cartoon caches. *)
let spec =
  {
    Dir_workload.default_spec with
    dirs = 32;
    entries_per_dir = 32;  (* 1 KB per directory *)
    cluster_bytes = 512;
    think_cycles = 50;
  }

(* Fraction of a directory's lines resident in one cache. *)
let residency machine fs d cache =
  let cfg = Machine.cfg machine in
  let line_bytes = cfg.Config.line_bytes in
  let img = O2_fs.Fat.image fs in
  let cluster_bytes = O2_fs.Fat_image.cluster_bytes img in
  let total = ref 0 and present = ref 0 in
  List.iter
    (fun cluster ->
      let base = O2_fs.Fat_image.cluster_addr img cluster in
      for l = base / line_bytes to (base + cluster_bytes - 1) / line_bytes do
        incr total;
        if Cache.contains cache l then incr present
      done)
    (O2_fs.Fat.dir_clusters fs d);
  if !total = 0 then 0.0 else float_of_int !present /. float_of_int !total

(* Directories here are only 16 lines, so "expensive to fetch" must mean
   a few misses per operation, not the default tuned for 32 KB objects. *)
let o2_policy =
  {
    Coretime.Policy.default with
    Coretime.Policy.promote_threshold = 4.0;
    promote_min_ops = 2;
    (* a static snapshot wants a stable partition: spread at promotion
       time instead of repairing with the monitor afterwards *)
    placement = Coretime.Policy.Least_loaded;
    rebalance = false;
  }

let run_one ~policy ~scheduler =
  let horizon = 30_000_000 in
  let machine = Machine.create Config.small4 in
  let engine = O2_runtime.Engine.create machine in
  let ct = Coretime.create ~policy engine () in
  let w = Dir_workload.build ct spec in
  Dir_workload.spawn_threads w;
  O2_runtime.Engine.run ~until:horizon engine;
  let fs = Dir_workload.fs w in
  let caches = Machine.all_caches machine in
  let dir_names = List.init spec.Dir_workload.dirs (Printf.sprintf "d%d") in
  let per_cache =
    List.map
      (fun cache ->
        let resident =
          List.filteri
            (fun i _ ->
              residency machine fs (Dir_workload.directory w i) cache >= 0.5)
            dir_names
        in
        (Cache.name cache, resident))
      caches
  in
  let off_chip =
    List.filteri
      (fun i _ ->
        List.for_all
          (fun cache ->
            residency machine fs (Dir_workload.directory w i) cache < 0.5)
          caches)
      dir_names
  in
  {
    scheduler;
    per_cache;
    off_chip;
    distinct_lines = Machine.distinct_cached_lines machine;
    throughput =
      float_of_int (Dir_workload.lookups_done w)
      /. (float_of_int horizon /. (Config.small4.Config.ghz *. 1e9))
      /. 1000.0;
  }

let print_snapshot ppf s =
  Format.fprintf ppf "--- %s ---@." s.scheduler;
  List.iter
    (fun (cache, dirs) ->
      Format.fprintf ppf "%-10s: %s@." cache
        (if dirs = [] then "-" else String.concat " " dirs))
    s.per_cache;
  Format.fprintf ppf "off-chip  : %s@."
    (if s.off_chip = [] then "(none)" else String.concat " " s.off_chip);
  Format.fprintf ppf "distinct lines on chip: %d; throughput %.0f kres/s@.@."
    s.distinct_lines s.throughput

let fig2 ?quick:_ ?(jobs = 1) ppf =
  Format.fprintf ppf
    "@.=== Figure 2: cache contents, thread scheduler vs O2 scheduler ===@.";
  Format.fprintf ppf
    "(small 4-core machine: 1KB L1 / 4KB L2 per core, 16KB L3; thirty-two \
     1KB directories)@.@.";
  (* the two snapshots are independent cells: run them through the pool *)
  let snaps =
    O2_native.Native_pool.map ~jobs
      (fun (policy, scheduler) -> run_one ~policy ~scheduler)
      [
        (Coretime.Policy.baseline, "(a) Thread scheduler");
        (o2_policy, "(b) O2 scheduler");
      ]
  in
  let thread_sched, o2 =
    match snaps with [ a; b ] -> (a, b) | _ -> assert false
  in
  print_snapshot ppf thread_sched;
  print_snapshot ppf o2;
  Format.fprintf ppf
    "distinct on-chip data: %d lines (thread) vs %d lines (O2); the O2 \
     scheduler keeps %s directories off-chip vs %s under the thread \
     scheduler.@."
    thread_sched.distinct_lines o2.distinct_lines
    (string_of_int (List.length o2.off_chip))
    (string_of_int (List.length thread_sched.off_chip))
