type exp = {
  id : string;
  title : string;
  paper_ref : string;
  default_set : bool;
  run :
    quick:bool ->
    jobs:int ->
    obs:Harness.obs ->
    Format.formatter ->
    (unit, string) result;
}

(* An experiment that only prints: it has no verdict of its own. *)
let printing f ~quick ~jobs ~obs ppf =
  f ~quick ~jobs ~obs ppf;
  Ok ()

let all =
  [
    {
      id = "latency";
      title = "Hardware latencies: paper vs simulated machine";
      paper_ref = "Section 5, 'Hardware'";
      default_set = true;
      run =
        printing (fun ~quick:_ ~jobs:_ ~obs:_ ppf -> Latency_table.print ppf);
    };
    {
      id = "quickstart";
      title = "Bounded quickstart workload (flight-recorder demo)";
      paper_ref = "Figure 3";
      default_set = false;
      run =
        printing (fun ~quick ~jobs:_ ~obs ppf ->
            Quickstart_exp.run ~quick ~obs ppf);
    };
    {
      id = "fig2";
      title = "Cache contents under thread vs O2 scheduling";
      paper_ref = "Figure 2";
      default_set = true;
      run =
        printing (fun ~quick ~jobs ~obs:_ ppf -> Fig2.fig2 ~quick ~jobs ppf);
    };
    {
      id = "fig4a";
      title = "File system benchmark, uniform directory popularity";
      paper_ref = "Figure 4(a)";
      default_set = true;
      run =
        printing (fun ~quick ~jobs ~obs ppf ->
            Figure4.fig4a ~quick ~jobs ~obs ppf);
    };
    {
      id = "fig4b";
      title = "File system benchmark, oscillating directory popularity";
      paper_ref = "Figure 4(b)";
      default_set = true;
      run =
        printing (fun ~quick ~jobs ~obs ppf ->
            Figure4.fig4b ~quick ~jobs ~obs ppf);
    };
    {
      id = "ablation-migration";
      title = "Migration-cost sensitivity";
      paper_ref = "Section 6.1";
      default_set = false;
      run =
        printing (fun ~quick ~jobs ~obs ppf ->
          Ablations.migration_cost ~obs ~quick ~jobs ppf);
    };
    {
      id = "ablation-replication";
      title = "Replicate read-only objects vs schedule them";
      paper_ref = "Section 6.2";
      default_set = false;
      run =
        printing (fun ~quick ~jobs ~obs:_ ppf ->
          Ablations.replication ~quick ~jobs ppf);
    };
    {
      id = "ablation-overflow";
      title = "Working sets larger than on-chip memory";
      paper_ref = "Section 6.2";
      default_set = false;
      run =
        printing (fun ~quick ~jobs ~obs:_ ppf ->
            Ablations.overflow ~quick ~jobs ppf);
    };
    {
      id = "ablation-clustering";
      title = "Object clustering for two-object operations";
      paper_ref = "Section 6.2";
      default_set = false;
      run =
        printing (fun ~quick ~jobs ~obs:_ ppf ->
            Ablations.clustering ~quick ~jobs ppf);
    };
    {
      id = "ablation-rebalance";
      title = "Packing pathology vs the runtime monitor";
      paper_ref = "Section 4";
      default_set = false;
      run =
        printing (fun ~quick ~jobs ~obs ppf ->
          Ablations.rebalance ~obs ~quick ~jobs ppf);
    };
    {
      id = "ablation-clustering-sched";
      title = "Thread clustering comparator";
      paper_ref = "Sections 2 and 7";
      default_set = false;
      run =
        printing (fun ~quick ~jobs ~obs:_ ppf ->
          Ablations.thread_clustering ~quick ~jobs ppf);
    };
    {
      id = "ablation-shipping";
      title = "Operation shipping by active message";
      paper_ref = "Section 6.1";
      default_set = false;
      run =
        printing (fun ~quick ~jobs ~obs:_ ppf ->
          Ablations.op_shipping ~quick ~jobs ppf);
    };
    {
      id = "btree";
      title = "B+-tree index lookups";
      paper_ref = "Sections 1 and 6.2";
      default_set = false;
      run =
        printing (fun ~quick ~jobs:_ ~obs:_ ppf -> Btree_exp.run ~quick ppf);
    };
    {
      id = "native";
      title = "Native backend: simulator-as-oracle cross-check";
      paper_ref = "Section 3, 'Implementation'";
      default_set = false;
      (* Real domains at the oracle's fixed sizes: neither --quick nor
         the sweep-parallelism knob applies, and probes stay detached. *)
      run =
        (fun ~quick:_ ~jobs:_ ~obs:_ ppf ->
          if Native_exp.run ~domains:2 ppf then Ok ()
          else Error "native: oracle cross-check FAILED");
    };
    {
      id = "future";
      title = "A future 64-core multicore";
      paper_ref = "Section 6.1";
      default_set = false;
      run =
        printing (fun ~quick ~jobs ~obs:_ ppf ->
          Future_multicore.run ~quick ~jobs ppf);
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all
let ids () = List.map (fun e -> e.id) all

let run_ids ?(obs = Harness.no_obs) ?(catalogue = all) ~quick ~jobs ppf
    requested =
  let find id = List.find_opt (fun e -> e.id = id) catalogue in
  match List.filter (fun id -> Option.is_none (find id)) requested with
  | _ :: _ as unknown ->
      Error
        (Printf.sprintf "unknown experiment id(s): %s (known: %s)"
           (String.concat ", " unknown)
           (String.concat ", " (List.map (fun e -> e.id) catalogue)))
  | [] -> (
      let selected =
        if requested = [] then List.filter (fun e -> e.default_set) catalogue
        else List.filter (fun e -> List.mem e.id requested) catalogue
      in
      (* Every selected experiment runs; the failures are reported
         together. *)
      let failures =
        List.filter_map
          (fun e ->
            match e.run ~quick ~jobs ~obs ppf with
            | Ok () -> None
            | Error msg -> Some msg)
          selected
      in
      match failures with [] -> Ok () | _ -> Error (String.concat "; " failures))
