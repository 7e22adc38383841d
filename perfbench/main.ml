(* The benchmark executable; run.py builds it and passes its arguments
   through. One run measures one workload for --seconds and prints a
   metadata record, every metric with its unit, and last a one-line JSON
   result: end-to-end metrics with --trace 0, per-layer metrics with
   --trace 1 (a separate, traced run). Exit 0 when every output checked
   out, 1 when an op failed, 2 on a usage or configuration error. *)

module R = Report

exception Usage of string
exception Oversubscribed of int * int

let workloads = [ "sim_fig4a"; "native_kv"; "native_dir" ]

(* Per-layer metrics common to every workload. *)
let common_layer_names =
  [
    ("gc.minor_per_mop", "count");
    ("gc.major_per_mop", "count");
    ("trace.overhead_pct", "%");
    ("bench.failed_op_share", "ratio");
  ]

let layer_names () =
  Sim_bench.layer_names () @ Native_bench.layer_names @ common_layer_names

(* Every per-layer name, in a fixed order: measured ones from [measured],
   the rest printed as not applicable to [workload]. *)
let complete ~workload measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.R.name = name) measured with
      | Some m -> m
      | None -> R.absent name unit_ ("not applicable to " ^ workload))
    (layer_names ())

type args = {
  mutable workload : string;
  mutable seed : int option;
  mutable seconds : float;
  mutable trace : bool;
  mutable domains : int;
  mutable commit : string;
  mutable digest : string;
  mutable tiny : bool;
  mutable corrupt : bool;
  mutable pin_check : bool;
}

let parse argv =
  let a =
    {
      workload = "";
      seed = None;
      seconds = 10.0;
      trace = false;
      domains = 2;
      commit = "unknown";
      digest = "unknown";
      tiny = false;
      corrupt = false;
      pin_check = false;
    }
  in
  let int_of name v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> raise (Usage (Printf.sprintf "%s expects an integer, got %S" name v))
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        a.workload <- v;
        go rest
    | "--seed" :: v :: rest ->
        a.seed <- Some (int_of "--seed" v);
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> a.seconds <- s
        | _ -> raise (Usage ("--seconds expects a positive number, got " ^ v)));
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> a.trace <- false
        | "1" -> a.trace <- true
        | _ -> raise (Usage ("--trace expects 0 or 1, got " ^ v)));
        go rest
    | "--domains" :: v :: rest ->
        a.domains <- int_of "--domains" v;
        go rest
    | "--commit" :: v :: rest ->
        a.commit <- v;
        go rest
    | "--source-digest" :: v :: rest ->
        a.digest <- v;
        go rest
    | "--tiny" :: rest ->
        a.tiny <- true;
        go rest
    | "--corrupt-one" :: rest ->
        a.corrupt <- true;
        go rest
    | "--pin-check" :: rest ->
        a.pin_check <- true;
        go rest
    | x :: _ -> raise (Usage ("unknown or incomplete argument " ^ x))
  in
  go (List.tl (Array.to_list argv));
  a

(* The quick-horizon Figure 4(a) rows at the default workload seed, as
   BENCH_fig4.json records them: (cell, kres/s). *)
let pinned =
  [ ("256k_base", 2964.0); ("256k_ct", 3500.8); ("8m_base", 963.0); ("8m_ct", 2361.0) ]

let pin_check () =
  let results, _, _ = Sim_bench.pass ~seed:42 ~horizon:Sim_bench.Quick ~traced:false ~spans:None in
  let ok = ref true in
  List.iter
    (fun ((o : Sim_bench.outcome), _) ->
      let want = List.assoc o.Sim_bench.cell.Sim_bench.label pinned in
      let same = Float.abs (o.Sim_bench.kres -. want) < 1e-6 in
      if not same then ok := false;
      Printf.printf "pin %-10s kres/s %.3f expected %.3f %s\n" o.Sim_bench.cell.Sim_bench.label
        o.Sim_bench.kres want
        (if same then "ok" else "MISMATCH"))
    results;
  if !ok then 0 else 1

let run a =
  if not (List.mem a.workload workloads) then
    raise
      (Usage
         (Printf.sprintf "--workload must be one of %s (got %S)"
            (String.concat ", " workloads) a.workload));
  let seed =
    match a.seed with Some s -> s | None -> raise (Usage "--seed is required")
  in
  let native = a.workload <> "sim_fig4a" in
  if native && (a.domains < 1 || a.domains > R.host_cores ()) then
    raise (Oversubscribed (a.domains, R.host_cores ()));
  let meta =
    {
      R.workload = a.workload;
      seed;
      seconds = a.seconds;
      trace = a.trace;
      commit = a.commit;
      source_digest = a.digest;
      domains = (if native then a.domains else 0);
    }
  in
  Printf.printf "perfbench %s: seed %d, %g s, trace %d\n" a.workload seed a.seconds
    (if a.trace then 1 else 0);
  Printf.printf "meta: %s\n%!" (R.meta_json meta);
  let spans = R.Spans.create (if a.trace then 50_000 else 0) in
  let correct, attempted, failed, metrics, info =
    if native then begin
      let kind =
        if a.workload = "native_kv" then Native_bench.Kv_work else Native_bench.Dir_work
      in
      let r =
        Native_bench.run ~kind ~seed ~seconds:a.seconds ~trace:a.trace ~domains:a.domains
          ~tiny:a.tiny ~corrupt:a.corrupt ~spans
      in
      List.iter (Printf.printf "  client raised: %s\n") r.Native_bench.raised;
      Native_bench.(r.correct, r.attempted, r.failed, r.metrics, r.info)
    end
    else if a.trace then
      let r = Sim_bench.run_traced ~seed ~tiny:a.tiny ~spans in
      Sim_bench.(r.correct, r.attempted, r.failed, r.metrics, r.info)
    else
      let r = Sim_bench.run_e2e ~seed ~seconds:a.seconds ~tiny:a.tiny in
      Sim_bench.(r.correct, r.attempted, r.failed, r.metrics, r.info)
  in
  let metrics = if a.trace then complete ~workload:a.workload metrics else metrics in
  Printf.printf "%s metrics:\n" (if a.trace then "per-layer" else "end-to-end");
  R.print_metrics metrics;
  R.print_metrics ~prefix:"info " info;
  if a.trace then begin
    let dir = ".bench_traces" in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat dir (Printf.sprintf "%s-seed%d.json" a.workload seed) in
    R.Spans.write spans ~path ~meta;
    Printf.printf "trace: %d spans (%d dropped) written to %s\n" spans.R.Spans.n
      spans.R.Spans.dropped path
  end;
  print_endline (R.result_json ~correct ~attempted ~failed metrics);
  if correct then 0 else 1

let () =
  let code =
    match parse Sys.argv with
    | exception Usage msg ->
        prerr_endline ("perfbench: " ^ msg);
        2
    | a when a.pin_check -> pin_check ()
    | a -> (
        try run a with
        | Usage msg ->
            prerr_endline ("perfbench: " ^ msg);
            2
        | Oversubscribed (d, cores) ->
            prerr_endline
              (Printf.sprintf
                 "perfbench: Oversubscribed: %d native domains requested but the \
                  host has %d core(s); the benchmark never oversubscribes"
                 d cores);
            2)
  in
  exit code
