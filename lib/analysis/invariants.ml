open O2_runtime
module Object_table = Coretime.Object_table

type frame = { o_addr : int; mutable pinned : int option }

type t = {
  report : Report.t;
  name_of : int -> string option;
  table : Object_table.t option;
  cores : int option;
  migrate_back : bool;
  frames : (int, frame list) Hashtbl.t;  (* tid -> open ops, innermost first *)
  depth_flagged : (int, unit) Hashtbl.t;
  mutable audits : int;
}

let max_reasonable_nesting = 32

let create ~report ~name_of ?table ?cores ?(migrate_back = true) () =
  {
    report;
    name_of;
    table;
    cores;
    migrate_back;
    frames = Hashtbl.create 64;
    depth_flagged = Hashtbl.create 8;
    audits = 0;
  }

let subject_of t addr =
  match t.name_of addr with
  | Some n -> n
  | None -> Printf.sprintf "object %#x" addr

let audit t ?time () =
  match t.table with
  | None -> ()
  | Some table ->
      t.audits <- t.audits + 1;
      let budget = Object_table.budget table in
      (match t.cores with
      | None -> ()
      | Some cores ->
          for core = 0 to cores - 1 do
            let used = Object_table.used table core in
            if used > budget then
              Report.add t.report
                (Diagnostic.make ~checker:"invariant" ~code:"capacity" ?time
                   ~cores:[ core ]
                   ~subject:(Printf.sprintf "core %d" core)
                   (Printf.sprintf
                      "cache packing over budget on core %d: %d bytes \
                       assigned, budget %d"
                      core used budget))
          done;
          Object_table.iter table (fun o ->
              match o.Object_table.home with
              | Some h when h < 0 || h >= cores ->
                  Report.add t.report
                    (Diagnostic.make ~checker:"invariant" ~code:"home-range"
                       ?time ~addr:o.Object_table.base
                       ~subject:o.Object_table.name
                       (Printf.sprintf
                          "object %s assigned to out-of-range core %d \
                           (machine has %d cores)"
                          o.Object_table.name h cores))
              | Some _ | None -> ()));
      (match Object_table.check_accounting table with
      | Ok () -> ()
      | Error e ->
          Report.add t.report
            (Diagnostic.make ~checker:"invariant" ~code:"accounting" ?time
               ~subject:"object-table"
               ("object table byte accounting inconsistent: " ^ e)))

let on_event t ev =
  match ev with
  | Probe.Op_started { time; core; tid; addr; home } ->
      (match home with
      | Some h when h <> core ->
          Report.add t.report
            (Diagnostic.make ~checker:"invariant" ~code:"affinity" ~time
               ~cores:[ core; h ] ~threads:[ tid ] ~addr
               ~subject:(subject_of t addr)
               (Printf.sprintf
                  "operation on %s started on core %d but the object's home \
                   is core %d: ct_start failed to bring the operation to \
                   its object"
                  (subject_of t addr) core h))
      | Some _ | None -> ());
      let pinned = match home with Some h when h = core -> Some h | _ -> None in
      let frames =
        Option.value ~default:[] (Hashtbl.find_opt t.frames tid)
      in
      let frames = { o_addr = addr; pinned } :: frames in
      Hashtbl.replace t.frames tid frames;
      if
        List.length frames > max_reasonable_nesting
        && not (Hashtbl.mem t.depth_flagged tid)
      then begin
        Hashtbl.add t.depth_flagged tid ();
        Report.add t.report
          (Diagnostic.make ~checker:"invariant" ~code:"nesting-depth" ~time
             ~severity:Diagnostic.Warning ~threads:[ tid ]
             ~subject:(Printf.sprintf "thread %d" tid)
             (Printf.sprintf
                "thread %d has %d ct_start frames open: a ct_end is \
                 probably being skipped in a loop"
                tid (List.length frames)))
      end
  | Probe.Op_ended { time; core; tid } -> (
      match Option.value ~default:[] (Hashtbl.find_opt t.frames tid) with
      | [] ->
          Report.add t.report
            (Diagnostic.make ~checker:"invariant" ~code:"unmatched-end" ~time
               ~cores:[ core ] ~threads:[ tid ]
               ~subject:(Printf.sprintf "thread %d" tid)
               (Printf.sprintf "thread %d called ct_end with no operation open"
                  tid))
      | _inner :: rest ->
          (* Without migrate-back the thread legitimately continues on the
             inner operation's core, so the enclosing pin no longer holds
             unless the thread never left it. *)
          (match rest with
          | outer :: _ when not t.migrate_back ->
              (match outer.pinned with
              | Some h when h <> core -> outer.pinned <- None
              | Some _ | None -> ())
          | _ -> ());
          Hashtbl.replace t.frames tid rest)
  | Probe.Mem { time; core; tid; addr; _ } -> (
      match Hashtbl.find_opt t.frames tid with
      | Some ({ pinned = Some h; o_addr } :: _) when h <> core ->
          Report.add t.report
            (Diagnostic.make ~checker:"invariant" ~code:"affinity" ~time
               ~cores:[ core; h ] ~threads:[ tid ] ~addr
               ~subject:(subject_of t o_addr)
               (Printf.sprintf
                  "memory access at %#x by thread %d ran on core %d during \
                   an operation homed on core %d: the operation's cycles \
                   are being charged away from its object's core"
                  addr tid core h));
          (* one report per excursion, not per access *)
          (match Hashtbl.find_opt t.frames tid with
          | Some (f :: _) -> f.pinned <- None
          | _ -> ())
      | _ -> ())
  | Probe.Thread_finished { time; core; tid } -> (
      match Hashtbl.find_opt t.frames tid with
      | Some ((_ :: _) as frames) ->
          Report.add t.report
            (Diagnostic.make ~checker:"invariant" ~code:"open-op" ~time
               ~cores:[ core ] ~threads:[ tid ]
               ~subject:(Printf.sprintf "thread %d" tid)
               (Printf.sprintf
                  "thread %d finished with %d operation(s) still open \
                   (ct_start without ct_end): %s"
                  tid (List.length frames)
                  (String.concat ", "
                     (List.map (fun f -> subject_of t f.o_addr) frames))));
          Hashtbl.remove t.frames tid
      | Some [] | None -> ())
  | Probe.Rebalanced { time; _ } -> audit t ~time ()
  | Probe.Lock_acquired _ | Probe.Lock_released _ | Probe.Thread_spawned _
  | Probe.Thread_moved _ | Probe.Op_requested _ | Probe.Decision _ ->
      ()

let finish t = audit t ()
