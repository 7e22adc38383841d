(* What one run prints: a metadata record, one line per metric with its
   unit, and, last, the single-line JSON result. *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  note : string;  (** Why the value is not a measurement here, or "". *)
}

let metric name unit_ value =
  if Float.is_finite value then { name; unit_; value; note = "" }
  else { name; unit_; value = 0.0; note = "not measured (no samples)" }

(* A metric that does not apply to this workload, or could not be
   measured: printed as 0 with the reason beside it. *)
let absent name unit_ note = { name; unit_; value = 0.0; note }

type meta = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  commit : string;
  source_digest : string;
  domains : int;  (** Native worker domains; 0 on the simulator. *)
}

let host_cores () = Domain.recommended_domain_count ()

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit the float carries; integral values print without a
   fraction so counts read as counts. *)
let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let meta_json m =
  Printf.sprintf
    "{\"workload\": %s, \"seed\": %d, \"seconds\": %s, \"trace\": %b, \
     \"host_cores\": %d, \"commit\": %s, \"source_digest\": %s, \"ocaml\": \
     %s, \"telemetry\": \"off\", \"domains\": %d, \"oversubscribed\": false}"
    (json_string m.workload) m.seed (json_float m.seconds) m.trace
    (host_cores ()) (json_string m.commit) (json_string m.source_digest)
    (json_string Sys.ocaml_version) m.domains

(* One line per metric; [prefix] marks lines that are not part of this
   run's JSON (the other mode's values, pass bookkeeping). *)
let print_metrics ?(prefix = "") metrics =
  List.iter
    (fun m ->
      let name = prefix ^ m.name in
      if m.note = "" then Printf.printf "  %-36s %.6g %s\n" name m.value m.unit_
      else Printf.printf "  %-36s n/a %s (%s)\n" name m.unit_ m.note)
    metrics

let result_json ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_float m.value) (json_string m.unit_))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)

(* Spans the traced run keeps in memory and writes at exit: name, start
   and end (wall-clock ns), parent span id (-1 for a root) and the op id
   shared by the spans of one op (-1 when the span is not an op's). *)
module Spans = struct
  type t = {
    cap : int;
    mutable n : int;
    mutable dropped : int;
    names : string array;
    start : int array;
    stop : int array;
    parent : int array;
    op : int array;
  }

  let create cap =
    {
      cap;
      n = 0;
      dropped = 0;
      names = Array.make cap "";
      start = Array.make cap 0;
      stop = Array.make cap 0;
      parent = Array.make cap (-1);
      op = Array.make cap (-1);
    }

  (* The new span's id, or -1 once the store is full. *)
  let add t ~name ~start ~stop ~parent ~op =
    if t.n >= t.cap then begin
      t.dropped <- t.dropped + 1;
      -1
    end
    else begin
      let i = t.n in
      t.names.(i) <- name;
      t.start.(i) <- start;
      t.stop.(i) <- stop;
      t.parent.(i) <- parent;
      t.op.(i) <- op;
      t.n <- i + 1;
      i
    end

  let write t ~path ~meta =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc
          "{\"meta\": %s,\n \"clock\": \"wall-clock ns, CLOCK_MONOTONIC\",\n \
           \"dropped\": %d,\n \"spans\": [\n"
          (meta_json meta) t.dropped;
        for i = 0 to t.n - 1 do
          Printf.fprintf oc
            "  {\"id\": %d, \"name\": %s, \"start\": %d, \"end\": %d, \
             \"parent\": %d, \"op\": %d}%s\n"
            i (json_string t.names.(i)) t.start.(i) t.stop.(i) t.parent.(i)
            t.op.(i)
            (if i = t.n - 1 then "" else ",")
        done;
        output_string oc " ]}\n")
end
