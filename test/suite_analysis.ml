open O2_simcore
open O2_runtime
module A = O2_analysis

let setup_engine () =
  let machine = Machine.create Config.amd16 in
  let engine = Engine.create machine in
  (machine, engine)

(* Two threads on different chips hammer one shared word; [locked] decides
   whether the accesses are protected. The unprotected variant is the
   ISSUE's deliberately-racy workload. *)
let racy_pair ~locked () =
  let machine, engine = setup_engine () in
  let mem = Machine.memory machine in
  let shared = Memsys.alloc mem ~name:"shared-counter" ~size:64 in
  let lock = Spinlock.create mem ~name:"shared-counter-lock" in
  let check = A.Analysis.attach_engine engine in
  let worker core =
    ignore
      (Engine.spawn engine ~core ~name:(Printf.sprintf "w%d" core) (fun () ->
           for _ = 1 to 5 do
             if locked then Api.lock lock;
             ignore (Api.read ~addr:shared.Memsys.base ~len:8);
             Api.compute 200;
             ignore (Api.write ~addr:shared.Memsys.base ~len:8);
             if locked then Api.unlock lock
           done))
  in
  worker 0;
  worker 2;
  Engine.run engine;
  A.Analysis.finish check;
  (check, shared.Memsys.base)

let test_race_flagged () =
  let check, base = racy_pair ~locked:false () in
  Alcotest.(check bool) "a race was found" true (A.Analysis.races check >= 1);
  match
    List.find_opt
      (fun d ->
        d.A.Diagnostic.checker = "lockset" && d.A.Diagnostic.code = "race")
      (A.Analysis.diagnostics check)
  with
  | None -> Alcotest.fail "no lockset/race diagnostic"
  | Some d ->
      Alcotest.(check (option int))
        "names the object's address" (Some base) d.A.Diagnostic.addr;
      Alcotest.(check (option string))
        "names the object" (Some "shared-counter") d.A.Diagnostic.subject;
      Alcotest.(check bool)
        "names both racing cores" true
        (List.mem 0 d.A.Diagnostic.cores && List.mem 2 d.A.Diagnostic.cores)

let test_locked_pair_clean () =
  let check, _ = racy_pair ~locked:true () in
  Alcotest.(check int) "no races" 0 (A.Analysis.races check);
  Alcotest.(check bool) "fully clean" true (A.Analysis.is_clean check)

(* A well-behaved CoreTime workload — annotated read operations plus a
   lock-protected shared counter — must produce zero diagnostics. *)
let test_coretime_clean () =
  let machine, engine = setup_engine () in
  let ct = Coretime.create engine () in
  let check = A.Analysis.attach ct in
  let mem = Machine.memory machine in
  let ext = Memsys.alloc mem ~name:"tree" ~size:(32 * 1024) in
  ignore
    (Coretime.register ct ~base:ext.Memsys.base ~size:ext.Memsys.size
       ~name:"tree" ());
  let counter = Memsys.alloc_isolated mem ~name:"hits" ~size:8 in
  let lock = Spinlock.create mem ~name:"hits-lock" in
  let worker core =
    ignore
      (Engine.spawn engine ~core ~name:(Printf.sprintf "w%d" core) (fun () ->
           for _ = 1 to 15 do
             Coretime.with_op ct ext.Memsys.base (fun () ->
                 ignore (Api.read ~addr:ext.Memsys.base ~len:4096);
                 Api.compute 300);
             Api.lock lock;
             ignore (Api.write ~addr:counter.Memsys.base ~len:8);
             Api.unlock lock
           done))
  in
  List.iter worker [ 0; 3; 7 ];
  Engine.run engine;
  A.Analysis.finish check;
  if not (A.Analysis.is_clean check) then
    Alcotest.failf "expected a clean run, got:@.%a" A.Analysis.pp check

let test_open_op_flagged () =
  let machine, engine = setup_engine () in
  let ct = Coretime.create engine () in
  let check = A.Analysis.attach ct in
  let mem = Machine.memory machine in
  let ext = Memsys.alloc mem ~name:"leaky" ~size:1024 in
  ignore
    (Coretime.register ct ~base:ext.Memsys.base ~size:1024 ~name:"leaky" ());
  ignore
    (Engine.spawn engine ~core:0 ~name:"leaker" (fun () ->
         Coretime.ct_start ct ext.Memsys.base;
         Api.compute 100
         (* no ct_end: the thread exits with the operation open *)));
  Engine.run engine;
  A.Analysis.finish check;
  Alcotest.(check bool) "open-op reported" true
    (List.exists
       (fun d -> d.A.Diagnostic.code = "open-op")
       (A.Analysis.diagnostics check))

(* A -> B then B -> A from the same thread: never an actual deadlock in a
   deterministic run, which is exactly why the order graph must catch it. *)
let test_lock_order_cycle () =
  let machine, engine = setup_engine () in
  let mem = Machine.memory machine in
  let la = Spinlock.create mem ~name:"lockA" in
  let lb = Spinlock.create mem ~name:"lockB" in
  let check = A.Analysis.attach_engine engine in
  ignore
    (Engine.spawn engine ~core:0 ~name:"t" (fun () ->
         Api.lock la;
         Api.lock lb;
         Api.unlock lb;
         Api.unlock la;
         Api.lock lb;
         Api.lock la;
         Api.unlock la;
         Api.unlock lb));
  Engine.run engine;
  A.Analysis.finish check;
  match
    List.find_opt
      (fun d -> d.A.Diagnostic.code = "deadlock-cycle")
      (A.Analysis.diagnostics check)
  with
  | None -> Alcotest.fail "no deadlock-cycle diagnostic"
  | Some d ->
      Alcotest.(check string)
        "from the lock-order checker" "lock-order" d.A.Diagnostic.checker

let test_held_at_exit () =
  let machine, engine = setup_engine () in
  let mem = Machine.memory machine in
  let lock = Spinlock.create mem ~name:"forgotten" in
  let check = A.Analysis.attach_engine engine in
  ignore
    (Engine.spawn engine ~core:0 ~name:"t" (fun () ->
         Api.lock lock;
         Api.compute 100));
  Engine.run engine;
  A.Analysis.finish check;
  Alcotest.(check bool) "held-at-exit reported" true
    (List.exists
       (fun d -> d.A.Diagnostic.code = "held-at-exit")
       (A.Analysis.diagnostics check))

(* Overfill a core's budget behind CoreTime's back; the end-of-run audit
   must notice. *)
let test_capacity_audit () =
  let _machine, engine = setup_engine () in
  let ct = Coretime.create engine () in
  let check = A.Analysis.attach ct in
  let tbl = Coretime.table ct in
  let o =
    Coretime.Object_table.register tbl ~base:0x900000
      ~size:(Coretime.Object_table.budget tbl + 4096)
      ~name:"oversized" ()
  in
  Coretime.Object_table.assign tbl o 0;
  A.Analysis.finish check;
  Alcotest.(check bool) "capacity violation reported" true
    (List.exists
       (fun d -> d.A.Diagnostic.code = "capacity")
       (A.Analysis.diagnostics check))

(* The extended accounting audit cross-checks the incremental indexes
   (per-core assignment lists, active set) against the ground-truth [home]
   and [ops_period] fields. Flip an object's home behind the API and both
   the direct check and the end-of-run audit must object. *)
let test_index_audit () =
  let _machine, engine = setup_engine () in
  let ct = Coretime.create engine () in
  let check = A.Analysis.attach ct in
  let tbl = Coretime.table ct in
  let a = Coretime.Object_table.register tbl ~base:0x1000 ~size:64 ~name:"a" () in
  let b = Coretime.Object_table.register tbl ~base:0x2000 ~size:64 ~name:"b" () in
  Coretime.Object_table.assign tbl a 0;
  Coretime.Object_table.assign tbl b 1;
  Coretime.Object_table.note_op tbl a;
  Alcotest.(check bool) "consistent table passes" true
    (Result.is_ok (Coretime.Object_table.check_accounting tbl));
  (* bypass [assign]: the object now claims core 2 but still sits on core
     0's intrusive list, and the byte ledgers disagree with the homes *)
  a.Coretime.Object_table.home <- Some 2;
  Alcotest.(check bool) "index corruption detected" true
    (Result.is_error (Coretime.Object_table.check_accounting tbl));
  A.Analysis.finish check;
  Alcotest.(check bool) "audit reports the inconsistency" true
    (List.exists
       (fun d -> d.A.Diagnostic.code = "accounting")
       (A.Analysis.diagnostics check))

(* Synthetic probe event: an operation claiming to start away from its
   home core must trip the affinity invariant. *)
let test_affinity_synthetic () =
  let _machine, engine = setup_engine () in
  let check = A.Analysis.attach_engine engine in
  Probe.emit (Engine.probe engine)
    (Probe.Op_started { time = 0; core = 1; tid = 0; addr = 0x5000; home = Some 3 });
  Alcotest.(check bool) "affinity violation reported" true
    (List.exists
       (fun d ->
         d.A.Diagnostic.code = "affinity"
         && List.mem 1 d.A.Diagnostic.cores
         && List.mem 3 d.A.Diagnostic.cores)
       (A.Analysis.diagnostics check))

let test_report_dedup_and_limit () =
  let r = A.Report.create ~limit:2 () in
  let d = A.Diagnostic.make ~checker:"t" ~code:"x" ~subject:"s" "msg" in
  A.Report.add r d;
  A.Report.add r d;
  Alcotest.(check int) "repeat deduplicated" 1 (A.Report.count r);
  A.Report.add r (A.Diagnostic.make ~checker:"t" ~code:"y" ~subject:"s" "msg2");
  A.Report.add r (A.Diagnostic.make ~checker:"t" ~code:"z" ~subject:"s" "msg3");
  Alcotest.(check int) "capped at the limit" 2 (A.Report.count r);
  Alcotest.(check int) "excess counted" 1 (A.Report.dropped r);
  Alcotest.(check bool) "not clean" false (A.Report.is_clean r)

(* The source rules of the former textual lint run inside o2staticcheck
   now: [ignored-result] as a typedtree pass that [run_on_modules]
   includes, and [missing-mli] as a file check in [Staticcheck.run] over
   [root/lib]. The missing-mli root is a scratch tree beside the real
   build: only its interface-less module is flagged, not one with an
   .mli, an [_intf.ml] or a file in a build or hidden directory. *)
let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_lint_rules () =
  let module SC = O2_staticcheck in
  let r =
    SC.Staticcheck.run_on_modules [ Suite_staticcheck.load_fixture "Fx_ignore" ]
  in
  Alcotest.(check (list string))
    "ignored-result is one of run's passes"
    [ "ignored-result"; "ignored-result"; "ignored-result" ]
    (List.filter_map
       (fun f ->
         (* the fixture's [ignore @@ Api.lock l] is also a lock leak *)
         if f.SC.Finding.pass = "ignore" then Some f.SC.Finding.code else None)
       r.SC.Staticcheck.findings);
  let root = Filename.temp_dir "o2lint" "" in
  Fun.protect
    ~finally:(fun () -> remove_tree root)
    (fun () ->
      let write rel =
        let path = Filename.concat root rel in
        let rec mkdirs d =
          if not (Sys.file_exists d) then begin
            mkdirs (Filename.dirname d);
            Sys.mkdir d 0o755
          end
        in
        mkdirs (Filename.dirname path);
        Out_channel.with_open_text path (fun oc ->
            output_string oc "let x = 1\n")
      in
      List.iter write
        [
          "lib/core/bare.ml"; "lib/core/paired.ml"; "lib/core/paired.mli";
          "lib/core/types_intf.ml"; "lib/_build/built.ml";
          "lib/.hidden/hidden.ml";
        ];
      let run build_dir = SC.Staticcheck.run ~build_dir ~root () in
      match
        match run ".." with Ok r -> Ok r | Error _ -> run "_build/default"
      with
      | Error e -> Alcotest.fail ("no build tree to run against: " ^ e)
      | Ok r ->
          Alcotest.(check (list (pair string string)))
            "only the interface-less module is flagged"
            [ ("missing-mli", "lib/core/bare.ml") ]
            (List.map
               (fun f -> (f.SC.Finding.code, f.SC.Finding.file))
               r.SC.Staticcheck.findings))

(* The textual lint blanked comments and literals with a stripper before
   matching, and was pinned on the lexemes that could desynchronise it.
   The typedtree pass sees no text, so the same lexemes must neither
   hide a real ignore nor fake one (test/fixtures/staticcheck). *)
let test_lint_strip () =
  let module SC = O2_staticcheck in
  let fs =
    SC.Ignore_check.check_module (Suite_staticcheck.load_fixture "Fx_lexemes")
  in
  Alcotest.(check (list (pair string int)))
    "only the ignores after a char literal and a quoted string"
    [ ("ignored-result", 15); ("ignored-result", 16) ]
    (List.map (fun f -> (f.SC.Finding.code, f.SC.Finding.line)) fs)

let suite =
  [
    Alcotest.test_case "unlocked shared writes are flagged as a race" `Quick
      test_race_flagged;
    Alcotest.test_case "the same workload under a lock is clean" `Quick
      test_locked_pair_clean;
    Alcotest.test_case "well-behaved CoreTime run is clean" `Quick
      test_coretime_clean;
    Alcotest.test_case "thread exiting with an open op is flagged" `Quick
      test_open_op_flagged;
    Alcotest.test_case "inconsistent lock order is flagged" `Quick
      test_lock_order_cycle;
    Alcotest.test_case "lock held at thread exit is flagged" `Quick
      test_held_at_exit;
    Alcotest.test_case "table audit catches a capacity violation" `Quick
      test_capacity_audit;
    Alcotest.test_case "table audit cross-checks the core indexes" `Quick
      test_index_audit;
    Alcotest.test_case "affinity invariant catches a stray op" `Quick
      test_affinity_synthetic;
    Alcotest.test_case "report dedups and caps" `Quick
      test_report_dedup_and_limit;
    Alcotest.test_case "source lint rules" `Quick test_lint_rules;
    Alcotest.test_case "lint stripper handles tricky lexemes" `Quick
      test_lint_strip;
  ]
