(* o2staticcheck against known-bad fixtures (test/fixtures/staticcheck):
   each violation class must produce exactly the expected diagnostic, the
   escape hatches must silence exactly what they claim, and the repo's
   own build tree must come back clean. *)

module SC = O2_staticcheck

(* The test binary runs from _build/default/test; the fixture library's
   cmts sit alongside it. Keep a source-tree fallback for direct runs. *)
let fixture_dir () =
  List.find_opt
    (fun d -> Sys.file_exists d && Sys.is_directory d)
    [
      "fixtures/staticcheck/.staticcheck_fixtures.objs/byte";
      "_build/default/test/fixtures/staticcheck/.staticcheck_fixtures.objs/byte";
    ]

let load_fixture short =
  match fixture_dir () with
  | None -> Alcotest.fail "fixture cmts not built (dune build test)"
  | Some dir -> (
      let path =
        Filename.concat dir ("staticcheck_fixtures__" ^ short ^ ".cmt")
      in
      match SC.Cmt_load.load path with
      | Some m -> m
      | None -> Alcotest.fail ("cannot load fixture cmt " ^ path))

let load_fixture_interface short =
  match fixture_dir () with
  | None -> Alcotest.fail "fixture cmtis not built (dune build test)"
  | Some dir -> (
      let path =
        Filename.concat dir ("staticcheck_fixtures__" ^ short ^ ".cmti")
      in
      match SC.Cmt_load.load_interface path with
      | Some i -> i
      | None -> Alcotest.fail ("cannot load fixture cmti " ^ path))

let codes findings =
  List.sort compare (List.map (fun f -> f.SC.Finding.code) findings)

let funcs_with ~code findings =
  List.sort compare
    (List.filter_map
       (fun f ->
         if f.SC.Finding.code = code then Some f.SC.Finding.func else None)
       findings)

let test_alloc_fixture () =
  let m = load_fixture "Fx_alloc" in
  let manifest =
    [
      {
        SC.Manifest.module_ = "Fx_alloc";
        functions =
          [
            "boxed_pair"; "consing"; "closure_maker"; "annotated"; "clean";
            "functor_clean"; "functor_closure"; "extcall";
            "noalloc_extcall"; "does_not_exist";
          ];
      };
    ]
  in
  let fs = SC.Alloc_check.check_module ~manifest m in
  Alcotest.(check (list string))
    "one finding per allocating construct"
    [
      "alloc-closure"; "alloc-closure"; "alloc-construct"; "alloc-extcall";
      "alloc-tuple"; "manifest-missing";
    ]
    (codes fs);
  Alcotest.(check (list string))
    "only the external without [@@noalloc] is reported" [ "extcall" ]
    (funcs_with ~code:"alloc-extcall" fs);
  Alcotest.(check (list string))
    "tuple blamed on boxed_pair" [ "boxed_pair" ]
    (funcs_with ~code:"alloc-tuple" fs);
  Alcotest.(check (list string))
    "cons blamed on consing" [ "consing" ]
    (funcs_with ~code:"alloc-construct" fs);
  Alcotest.(check (list string))
    "captures blamed on closure_maker and the functor's closure"
    [ "closure_maker"; "functor_closure" ]
    (funcs_with ~code:"alloc-closure" fs);
  Alcotest.(check (list string))
    "missing manifest entry reported" [ "does_not_exist" ]
    (funcs_with ~code:"manifest-missing" fs)

let test_effect_fixture () =
  let m = load_fixture "Fx_listener" in
  Alcotest.(check int)
    "all three listeners discovered" 3
    (List.length (SC.Effect_check.listeners m));
  let fs = SC.Effect_check.check_module m in
  Alcotest.(check (list string))
    "print and Api flagged; parameter-rooted counter clean"
    [ "effect-api"; "effect-io" ] (codes fs)

let test_lock_fixture () =
  let m = load_fixture "Fx_lock" in
  let fs = SC.Lock_check.check_module m in
  Alcotest.(check (list string))
    "each discipline violation flagged once"
    [ "lock-alloc"; "lock-blocking"; "lock-leak"; "lock-underflow" ]
    (codes fs);
  List.iter
    (fun (code, func) ->
      Alcotest.(check (list string))
        (code ^ " blamed on " ^ func)
        [ func ]
        (funcs_with ~code fs))
    [
      ("lock-leak", "leak");
      ("lock-blocking", "blocking");
      ("lock-alloc", "alloc_under");
      ("lock-underflow", "underflow");
    ]

let test_raw_fixture () =
  let m = load_fixture "Fx_raw" in
  Alcotest.(check (list string))
    "raw mutex and Obj.magic flagged" [ "obj-magic"; "raw-mutex" ]
    (codes (SC.Raw_use.check_module m));
  Alcotest.(check (list string))
    "allowlisting the source keeps only Obj.magic" [ "obj-magic" ]
    (codes
       (SC.Raw_use.check_module ~allowlist:[ m.SC.Cmt_load.source ] m))

(* The lib/native diagnostic surface: an allocating steal loop and a
   closure-per-task dispatch must fire the alloc pass, a raw
   Domain.spawn outside the shim must fire the raw pass, and the
   dummy-sentinel steal must come back clean. *)
let test_native_fixture () =
  let m = load_fixture "Fx_native" in
  let manifest =
    [
      {
        SC.Manifest.module_ = "Fx_native";
        functions =
          [ "steal_boxed"; "dispatch_capturing"; "drain_consing"; "clean_steal" ];
      };
    ]
  in
  let fs = SC.Alloc_check.check_module ~manifest m in
  Alcotest.(check (list string))
    "boxed steal, consing drain and capturing dispatch flagged"
    [ "alloc-closure"; "alloc-construct"; "alloc-construct" ]
    (codes fs);
  Alcotest.(check (list string))
    "option boxing blamed on the steal loop; sentinel steal clean"
    [ "drain_consing"; "steal_boxed" ]
    (funcs_with ~code:"alloc-construct" fs);
  Alcotest.(check (list string))
    "closure blamed on dispatch" [ "dispatch_capturing" ]
    (funcs_with ~code:"alloc-closure" fs);
  Alcotest.(check (list string))
    "raw Domain.spawn flagged outside the shim" [ "raw-domain" ]
    (codes (SC.Raw_use.check_module m))

(* The repo's own tree must be clean: every hot path either allocation-
   free or annotated, every listener effect-free, every lock balanced. *)
let test_clean_tree () =
  (* ".." is _build/default under dune runtest; "." covers running the
     binary by hand from a source root with _build/default beneath it. *)
  let result =
    match SC.Staticcheck.run ~root:".." () with
    | Ok r -> Ok r
    | Error _ -> SC.Staticcheck.run ~root:"." ()
  in
  match result with
  | Error e -> Alcotest.fail ("clean-tree run failed to find cmts: " ^ e)
  | Ok r ->
      Alcotest.(check (list string))
        "no findings on the repo tree" []
        (List.map (Format.asprintf "%a" SC.Finding.pp) r.SC.Staticcheck.findings);
      Alcotest.(check bool)
        "a useful number of modules scanned" true
        (r.SC.Staticcheck.modules_scanned > 50);
      Alcotest.(check int)
        "whole manifest resolved"
        (SC.Manifest.total_functions SC.Manifest.default)
        r.SC.Staticcheck.manifest_functions;
      Alcotest.(check bool)
        "listeners were actually checked" true
        (r.SC.Staticcheck.listeners_checked > 0)

(* The three forms of a discarded unit that a line-at-a-time text match
   missed — [ignore] and its call on separate lines, [e |> ignore] and
   [ignore @@ e] — are each flagged once; ignoring a thread handle is
   not. *)
let test_ignore_fixture () =
  let m = load_fixture "Fx_ignore" in
  let fs = SC.Ignore_check.check_module m in
  Alcotest.(check (list string))
    "each unit-typed ignore flagged once"
    [ "ignored-result"; "ignored-result"; "ignored-result" ]
    (codes fs);
  Alcotest.(check (list int))
    "findings on the three offending lines, not the thread handle"
    [ 10; 13; 14 ]
    (List.sort compare (List.map (fun f -> f.SC.Finding.line) fs))

(* Stdlib.min/max/compare inside a manifest function are flagged once per
   use, qualified or not; int-typed [<]/[>=] and functions outside the
   manifest are not. *)
let test_compare_fixture () =
  let m = load_fixture "Fx_compare" in
  let manifest =
    [
      {
        SC.Manifest.module_ = "Fx_compare";
        functions = [ "clock_max"; "clamp_min"; "sort_keys"; "int_typed" ];
      };
    ]
  in
  let fs = SC.Alloc_check.check_module ~manifest m in
  Alcotest.(check (list string))
    "one finding per polymorphic comparison"
    [ "poly-compare"; "poly-compare"; "poly-compare" ]
    (codes fs);
  Alcotest.(check (list string))
    "blamed on the max, min and compare users"
    [ "clamp_min"; "clock_max"; "sort_keys" ]
    (funcs_with ~code:"poly-compare" fs);
  Alcotest.(check (list int))
    "findings on their lines" [ 6; 8; 10 ]
    (List.map (fun f -> f.SC.Finding.line) fs);
  let r = SC.Staticcheck.run_on_modules ~manifest [ m ] in
  Alcotest.(check int)
    "the driver runs the pass" 3
    (List.length
       (List.filter
          (fun f -> f.SC.Finding.code = "poly-compare")
          r.SC.Staticcheck.findings))

(* The export pass over its fixture, run once: the interface with one
   value per class, the modules its user passes to a functor and packs as
   a first-class module, and the two users. The fixture library sits
   under test/, so its real user is relabelled as bin/ code. *)
let export_fixture =
  lazy
    (let user = load_fixture "Fx_export_user" in
     SC.Export_check.check
       [
         load_fixture_interface "Fx_export";
         load_fixture_interface "Fx_export_arg";
         load_fixture_interface "Fx_export_pack";
       ]
       [
         load_fixture "Fx_export";
         load_fixture "Fx_export_arg";
         load_fixture "Fx_export_pack";
         { user with SC.Cmt_load.source = "bin/fx_export_user.ml" };
         load_fixture "Fx_export_test";
       ])

(* The codes reported against one exported value of the fixture. *)
let export_codes name =
  let _, fs = Lazy.force export_fixture in
  codes (List.filter (fun f -> f.SC.Finding.func = name) fs)

let export_case name ~expect ~value () =
  Alcotest.(check (list string)) name expect (export_codes value)

(* Every finding of the fixture, and the class counts. The two
   unresolved paths are the functor parameters' values, [X.seed] and
   [M.via_argument]. *)
let test_export_fixture () =
  let counts, fs = Lazy.force export_fixture in
  Alcotest.(check (list (pair string string)))
    "one finding per class, and the unexplained hidden value"
    [
      ("unused-export", "unused");
      ("private-export", "private_");
      ("test-only-export", "tested");
      ("test-only-export", "hidden_no_reason");
    ]
    (List.map (fun f -> (f.SC.Finding.code, f.SC.Finding.func)) fs);
  Alcotest.(check (list int))
    "values, no user, own module, test only, real users, unresolved"
    [ 11; 1; 1; 3; 6; 2 ]
    SC.Export_check.
      [
        counts.values;
        counts.no_user;
        counts.own_module;
        counts.test_only;
        counts.real_users;
        counts.unresolved;
      ]

(* The class counts and the unresolved paths reach both the text summary
   and the JSON report. *)
let test_export_report () =
  let exports, findings = Lazy.force export_fixture in
  let r =
    {
      SC.Staticcheck.findings;
      modules_scanned = 5;
      manifest_functions = 0;
      listeners_checked = 0;
      exports;
    }
  in
  let contains ~sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let text = Format.asprintf "%a" SC.Staticcheck.pp_report r in
  Alcotest.(check bool)
    "text summary gives each class and the unresolved paths" true
    (contains
       ~sub:
         "11 exported values: 1 no user, 1 own module only, 3 test only, 6 \
          real users; 2 unresolved paths"
       text);
  Alcotest.(check bool)
    "text summary counts the findings" true
    (contains ~sub:"o2staticcheck: 4 findings" text);
  Alcotest.(check bool)
    "JSON gives each class and the unresolved paths" true
    (contains
       ~sub:
         "\"exports\": {\"values\": 11, \"no_user\": 1, \
          \"own_module_only\": 1, \"test_only\": 3, \"real_users\": 6, \
          \"unresolved_paths\": 2}"
       (SC.Staticcheck.report_to_json r))

let suite =
  [
    Alcotest.test_case "allocating hot path fixture" `Quick test_alloc_fixture;
    Alcotest.test_case "effectful listener fixture" `Quick test_effect_fixture;
    Alcotest.test_case "lock discipline fixture" `Quick test_lock_fixture;
    Alcotest.test_case "raw primitive fixture" `Quick test_raw_fixture;
    Alcotest.test_case "native backend fixture" `Quick test_native_fixture;
    Alcotest.test_case "repo tree is clean" `Quick test_clean_tree;
    Alcotest.test_case "ignored unit result fixture" `Quick test_ignore_fixture;
    Alcotest.test_case "polymorphic compare fixture" `Quick
      test_compare_fixture;
    Alcotest.test_case "unused export fixture" `Quick test_export_fixture;
    Alcotest.test_case "export: a value with no user" `Quick
      (export_case "unused-export" ~expect:[ "unused-export" ] ~value:"unused");
    Alcotest.test_case "export: a value used only in its own module" `Quick
      (export_case "private-export" ~expect:[ "private-export" ]
         ~value:"private_");
    Alcotest.test_case "export: a value used only by tests" `Quick
      (export_case "test-only-export" ~expect:[ "test-only-export" ]
         ~value:"tested");
    Alcotest.test_case "export: a test value after (**/**) with its reason"
      `Quick
      (export_case "deliberate test API is not reported" ~expect:[]
         ~value:"hidden_tested");
    Alcotest.test_case "export: a test value after (**/**) without a reason"
      `Quick
      (export_case "test-only-export" ~expect:[ "test-only-export" ]
         ~value:"hidden_no_reason");
    Alcotest.test_case "export: a use through open" `Quick
      (export_case "used" ~expect:[] ~value:"via_open");
    Alcotest.test_case "export: a use through a local module alias" `Quick
      (export_case "used" ~expect:[] ~value:"via_alias");
    Alcotest.test_case "export: K.v on a functor application" `Quick
      (export_case "used" ~expect:[] ~value:"via_apply");
    Alcotest.test_case "export: a functor argument uses its exports" `Quick
      (export_case "used" ~expect:[] ~value:"via_argument");
    Alcotest.test_case "export: a packed module uses its exports" `Quick
      (export_case "used" ~expect:[] ~value:"via_packed");
    Alcotest.test_case "export counts in the text and JSON reports" `Quick
      test_export_report;
  ]
