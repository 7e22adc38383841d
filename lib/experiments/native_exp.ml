(* The native-backend experiment: the simulator-as-oracle cross-check.

   The same kv/dir programs run on both backends and must agree
   bit-for-bit (O2_native.Oracle) across a 1/2/4 domain ladder. The
   ladder is taken literally (no clamp): on a host with fewer cores the
   extra domains time-share, which changes schedules but never results —
   the CLI's --domains flag is what clamps
   (O2_native.Native_pool.clamped). Native wall-clock ops/sec are
   measured by perfbench/run.py, not here. *)

module NB = O2_native.Native_backend
module Kv = O2_native.Backend_kv.Make (O2_native.Native_backend)
module Op = O2_native.Op_program
module Oracle = O2_native.Oracle
module Tel = O2_runtime.Telemetry

(* Result sink: each client folds its op results into its own slot so
   nothing is dead code, without cross-client synchronization. *)
let fold_sink sinks c acc = sinks.(c) <- sinks.(c) lxor acc

let ladder ~extra =
  let base = [ 1; 2; 4 ] in
  if extra > 0 && not (List.mem extra base) then base @ [ extra ] else base

let oracle_reports ~domains =
  List.concat_map
    (fun d ->
      [
        ("kv_store", Oracle.kv_cross_check ~domains:d ());
        ("dir_workload", Oracle.dir_cross_check ~domains:d ());
      ])
    (ladder ~extra:domains)

let run ~domains ppf =
  Format.fprintf ppf "== Native backend: simulator-as-oracle cross-check ==@.";
  Format.fprintf ppf
    "   (paper section 3: the O2 model is meant to run on real cores;@.";
  Format.fprintf ppf
    "    the simulator stays the oracle — same programs, same results)@.@.";
  Format.fprintf ppf "  oracle cross-check (simulator vs native):@.";
  let oracle = oracle_reports ~domains in
  List.iter
    (fun (w, r) -> Format.fprintf ppf "    %-13s %a@." w Oracle.pp_report r)
    oracle;
  let ok = List.for_all (fun (_, r) -> r.Oracle.ok) oracle in
  if not ok then Format.fprintf ppf "@.  ORACLE MISMATCH@.";
  Format.fprintf ppf "@.";
  ok

(* The observed cell: one kv run with the full flight recorder attached
   — ring events on, op spans sampled 1-in-[sample] — feeding the o2top
   readout, the per-domain table, and the Perfetto export. *)
let observed_cell ~quick ~domains ~sample ~metrics ~trace ppf =
  let tel = Tel.create ~ring_capacity:(1 lsl 18) ~sample ~domains () in
  let b = NB.create ~telemetry:tel ~domains () in
  Fun.protect
    ~finally:(fun () -> NB.shutdown b)
    (fun () ->
      let store =
        Kv.create b ~name:"kv" ~buckets:64 ~slots_per_bucket:32 ()
      in
      let clients = 8 in
      let ops_per_client = Harness.scaled ~quick 4_000 in
      let rounds = 3 in
      let sinks = Array.make clients 0 in
      for r = 0 to rounds - 1 do
        for c = 0 to clients - 1 do
          let prog =
            Op.kv_program ~clients ~client:c ~ops:ops_per_client
              ~keyspace:1024 ~seed:(499 + (31 * r))
          in
          NB.spawn b ~core:(c mod domains) ~name:"kv-client" (fun () ->
              let acc = ref 0 in
              Array.iter
                (fun op ->
                  let raw =
                    match op with
                    | Op.Get k -> Kv.get store ~key:k
                    | Op.Put (k, v) ->
                        if Kv.put store ~key:k ~value:v then 1 else 0
                    | Op.Delete k -> if Kv.delete store ~key:k then 1 else 0
                  in
                  acc := !acc lxor Op.kv_result op ~raw)
                prog;
              fold_sink sinks c !acc)
        done;
        NB.run b;
        if r < rounds - 1 then NB.rebalance b
      done;
      ignore (Sys.opaque_identity sinks);
      if metrics then begin
        Format.fprintf ppf
          "  observed cell (kv_store, %d domain(s), flight recorder \
           attached):@.@."
          domains;
        Format.pp_print_string ppf
          (O2_obs.O2top.render ~capture:tel (O2_obs.Capture.metrics tel));
        Format.fprintf ppf "@.-- per-domain breakdown --@.";
        Format.pp_print_string ppf (O2_obs.O2top.domain_table tel);
        Format.fprintf ppf "@."
      end;
      Option.iter
        (fun path ->
          O2_obs.Trace_export.write_file (O2_obs.Trace_export.Raw tel) ~path;
          Format.fprintf ppf
            "  wrote native Perfetto trace to %s (wall-clock ns, one track \
             per domain + coordinator)@."
            path)
        trace)

let run_cli ~quick ~domains ~metrics ~trace ~trace_sample ppf =
  let domains = O2_native.Native_pool.clamped ~what:"--domains" domains in
  let ok = run ~domains ppf in
  if metrics || trace <> None then
    observed_cell ~quick ~domains ~sample:trace_sample ~metrics ~trace ppf;
  ok
