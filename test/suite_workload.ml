open O2_simcore
open O2_workload

(* ---------- rng ---------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  let take r = List.init 20 (fun _ -> Rng.int r ~bound:1000) in
  Alcotest.(check (list int)) "same seed, same stream" (take a) (take b);
  let c = Rng.create ~seed:8 in
  Alcotest.(check bool) "different seed differs" true (take a <> take c)

let test_rng_bounds () =
  let r = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Rng.int r ~bound:17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v;
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of bounds: %f" f
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r ~bound:0))

let test_rng_split_independent () =
  let r = Rng.create ~seed:3 in
  let s = Rng.split r in
  Alcotest.(check bool) "streams differ" true
    (List.init 10 (fun _ -> Rng.next r) <> List.init 10 (fun _ -> Rng.next s))

let test_rng_shuffle_is_permutation () =
  let r = Rng.create ~seed:5 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  Alcotest.(check (list int)) "same elements" (List.init 50 Fun.id)
    (List.sort compare (Array.to_list a));
  Alcotest.(check bool) "actually shuffled" true (a <> Array.init 50 Fun.id)

(* ---------- dist ---------- *)

let test_uniform_support () =
  let d = Dist.uniform 10 in
  let r = Rng.create ~seed:2 in
  let seen = Array.make 10 0 in
  for _ = 1 to 2000 do
    let v = Dist.sample d r in
    seen.(v) <- seen.(v) + 1
  done;
  Array.iteri
    (fun i n -> if n = 0 then Alcotest.failf "value %d never drawn" i)
    seen;
  Alcotest.(check (float 1e-9)) "pmf" 0.1 (Dist.pmf d 3)

let test_zipf_skew () =
  let d = Dist.zipf ~n:100 ~s:1.2 in
  Alcotest.(check bool) "rank 0 most popular" true (Dist.pmf d 0 > Dist.pmf d 1);
  Alcotest.(check bool) "monotone" true (Dist.pmf d 10 > Dist.pmf d 50);
  let total = List.fold_left ( +. ) 0.0 (List.init 100 (Dist.pmf d)) in
  Alcotest.(check (float 1e-6)) "pmf sums to 1" 1.0 total;
  let r = Rng.create ~seed:4 in
  let head = ref 0 in
  for _ = 1 to 1000 do
    if Dist.sample d r < 10 then incr head
  done;
  Alcotest.(check bool) "head gets most of the mass" true (!head > 600)

let test_zipf_zero_exponent_is_uniform () =
  let d = Dist.zipf ~n:10 ~s:0.0 in
  Alcotest.(check (float 1e-9)) "flat" (Dist.pmf d 0) (Dist.pmf d 9)

let test_fixed () =
  let d = Dist.fixed 3 in
  let r = Rng.create ~seed:9 in
  Alcotest.(check int) "always the same" 3 (Dist.sample d r);
  Alcotest.(check (float 1e-9)) "pmf one" 1.0 (Dist.pmf d 3)

(* ---------- dir workload ---------- *)

let build ?(spec = { Dir_workload.default_spec with dirs = 8 }) () =
  let machine = Machine.create Config.amd16 in
  let engine = O2_runtime.Engine.create machine in
  let ct = Coretime.create ~policy:Coretime.Policy.baseline engine () in
  (engine, Dir_workload.build ct spec)

let test_workload_geometry () =
  let spec = Dir_workload.default_spec in
  (* 1000 entries x 32 bytes, rounded to 4 KB clusters = 32 KB per dir *)
  Alcotest.(check int) "data_kb for 64 dirs" (64 * 32) (Dir_workload.data_kb spec);
  let s = Dir_workload.spec_for_data_kb ~kb:8192 () in
  Alcotest.(check int) "8 MB needs 256 dirs" 256 s.Dir_workload.dirs;
  let tiny = Dir_workload.spec_for_data_kb ~kb:1 () in
  Alcotest.(check int) "at least one dir" 1 tiny.Dir_workload.dirs

let test_workload_builds_valid_volume () =
  let _, w = build () in
  let report = O2_fs.Fat_check.check (Dir_workload.fs w) in
  Alcotest.(check bool) "fsck clean" true (O2_fs.Fat_check.ok report);
  Alcotest.(check int) "8 dirs + root" 9 report.O2_fs.Fat_check.directories;
  Alcotest.(check int) "8000 files" 8000 report.O2_fs.Fat_check.files;
  let spec = Dir_workload.spec w in
  let content = spec.Dir_workload.entries_per_dir * 32 in
  let rounded =
    (content + spec.Dir_workload.cluster_bytes - 1)
    / spec.Dir_workload.cluster_bytes * spec.Dir_workload.cluster_bytes
  in
  Alcotest.(check int) "dir object sized by its cluster chain" rounded
    (Dir_workload.dir_object w 0).Coretime.Object_table.size

(* The built image, byte for byte, pinned at the Figure 4 sizes and at
   the 128-entry cluster boundary. It depends on neither the seed nor the
   machine config: only on directory count, entries and cluster size. *)
let image_pins =
  [
    ((256, 1000), "eaebc90c7236e478c6578cfa12f7fc8e");
    ((8192, 1000), "fc41e7a50c47fb0ff34ee37b5bd60025");
    ((20480, 1000), "63b40d185bda1747236b8300bddddcec");
    ((1024, 100), "a0b509a1c807332f3f1f3cfc07dc6da3");
    ((1024, 127), "fe17409dc98288d04e0239a9fc8d9bf6");
    ((1024, 128), "8f1c45de8500af484a93598a369900ff");
    ((1024, 129), "9a75e13bb2c38831e7725f8380445f54");
    ((4096, 1), "8692ccb513dd9b2882d6f8269eebb63c");
  ]

let test_workload_image_pinned () =
  List.iter
    (fun ((kb, entries_per_dir), digest) ->
      let _, w =
        build ~spec:(Dir_workload.spec_for_data_kb ~entries_per_dir ~kb ()) ()
      in
      let img = O2_fs.Fat_image.buf (O2_fs.Fat.image (Dir_workload.fs w)) in
      Alcotest.(check string)
        (Printf.sprintf "image MD5 at %d KB x %d entries" kb entries_per_dir)
        digest
        (Digest.to_hex (Digest.bytes img)))
    image_pins

let test_one_lookup_resolves () =
  let engine, w = build () in
  let ok = ref false in
  let rng = Rng.create ~seed:11 in
  ignore
    (O2_runtime.Engine.spawn engine ~core:0 ~name:"t" (fun () ->
         ok := Dir_workload.one_lookup w rng));
  O2_runtime.Engine.run engine;
  Alcotest.(check bool) "resolved" true !ok;
  Alcotest.(check int) "counted" 1 (Dir_workload.lookups_done w)

let test_set_active_clamps () =
  let _, w = build () in
  Dir_workload.set_active w 100;
  Alcotest.(check int) "clamped high" 8 (Dir_workload.active w);
  Dir_workload.set_active w 0;
  Alcotest.(check int) "clamped low" 1 (Dir_workload.active w);
  Dir_workload.set_active w 3;
  Alcotest.(check int) "set" 3 (Dir_workload.active w)

let test_active_prefix_respected () =
  (* per-object op counts are only maintained when CoreTime is enabled *)
  let machine = Machine.create Config.amd16 in
  let engine = O2_runtime.Engine.create machine in
  let ct = Coretime.create ~policy:Coretime.Policy.default engine () in
  let w = Dir_workload.build ct { Dir_workload.default_spec with dirs = 8 } in
  Dir_workload.set_active w 2;
  let rng = Rng.create ~seed:13 in
  ignore
    (O2_runtime.Engine.spawn engine ~core:0 ~name:"t" (fun () ->
         for _ = 1 to 50 do
           ignore (Dir_workload.one_lookup w rng)
         done));
  O2_runtime.Engine.run engine;
  (* only the first two directories' objects saw operations *)
  for i = 0 to 7 do
    let ops = (Dir_workload.dir_object w i).Coretime.Object_table.ops_total in
    if i < 2 then Alcotest.(check bool) "active dir used" true (ops > 0)
    else Alcotest.(check int) "inactive dir untouched" 0 ops
  done

let test_phase_square_wave () =
  let engine, w = build () in
  Phase.oscillate_active engine w ~period:1000 ~divisor:4;
  ignore
    (O2_runtime.Engine.spawn engine ~core:0 ~name:"t" (fun () ->
         O2_runtime.Api.compute 5000));
  O2_runtime.Engine.run ~until:1500 engine;
  Alcotest.(check int) "low phase: 8/4 = 2" 2 (Dir_workload.active w);
  O2_runtime.Engine.run ~until:2500 engine;
  Alcotest.(check int) "high phase again" 8 (Dir_workload.active w)

(* ---------- kv store ---------- *)

let kv () =
  let machine = Machine.create Config.amd16 in
  let engine = O2_runtime.Engine.create machine in
  let ct = Coretime.create ~policy:Coretime.Policy.baseline engine () in
  (engine, Kv_store.create ct ~name:"kv" ~buckets:16 ~slots_per_bucket:8 ())

let in_thread engine f =
  let result = ref None in
  ignore
    (O2_runtime.Engine.spawn engine ~core:0 ~name:"t" (fun () ->
         result := Some (f ())));
  O2_runtime.Engine.run engine;
  Option.get !result

let test_kv_put_get_delete () =
  let engine, kv = kv () in
  let outcome =
    in_thread engine (fun () ->
        let ok1 = Kv_store.put kv ~key:1 ~value:10 in
        let ok2 = Kv_store.put kv ~key:2 ~value:20 in
        let v1 = Kv_store.get kv ~key:1 in
        let missing = Kv_store.get kv ~key:99 in
        let updated = Kv_store.put kv ~key:1 ~value:11 in
        let v1' = Kv_store.get kv ~key:1 in
        let deleted = Kv_store.delete kv ~key:2 in
        let v2 = Kv_store.get kv ~key:2 in
        (ok1, ok2, v1, missing, updated, v1', deleted, v2))
  in
  Alcotest.(check bool) "behaviour" true
    (outcome = (true, true, Some 10, None, true, Some 11, true, None));
  Alcotest.(check int) "size" 1 (Kv_store.size kv)

let test_kv_bucket_overflow () =
  let engine, kv = kv () in
  let full =
    in_thread engine (fun () ->
        (* hammer keys that share a bucket until it fills *)
        let base = 5 in
        let bucket = Kv_store.bucket_of_key kv base in
        let same_bucket k = Kv_store.bucket_of_key kv k = bucket in
        let keys =
          List.filter same_bucket (List.init 4000 Fun.id)
        in
        List.filter_map
          (fun k -> if Kv_store.put kv ~key:k ~value:k then None else Some k)
          keys)
  in
  Alcotest.(check bool) "eventually rejects" true (List.length full > 0)

(* Model-based property: the kv store agrees with a Hashtbl under random
   put/get/delete sequences (performed from inside a simulated thread). *)
let prop_kv_matches_map =
  let op_gen =
    QCheck2.Gen.(
      oneof
        [
          map2 (fun k v -> `Put (k, v)) (int_bound 60) (int_bound 1000);
          map (fun k -> `Get k) (int_bound 60);
          map (fun k -> `Delete k) (int_bound 60);
        ])
  in
  QCheck2.Test.make ~name:"kv store behaves like a map" ~count:40
    QCheck2.Gen.(list_size (int_bound 150) op_gen)
    (fun ops ->
      let engine, store = kv () in
      let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
      in_thread engine (fun () ->
          List.for_all
            (fun op ->
              match op with
              | `Put (k, v) ->
                  if Kv_store.put store ~key:k ~value:v then begin
                    Hashtbl.replace model k v;
                    true
                  end
                  else true (* bucket full: store may refuse; model unchanged *)
              | `Get k -> Kv_store.get store ~key:k = Hashtbl.find_opt model k
              | `Delete k ->
                  let expected = Hashtbl.mem model k in
                  Hashtbl.remove model k;
                  Kv_store.delete store ~key:k = expected)
            ops)
      && Kv_store.size store = Hashtbl.length model)

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_is_permutation;
    Alcotest.test_case "uniform covers its support" `Quick test_uniform_support;
    Alcotest.test_case "zipf is skewed and normalised" `Quick test_zipf_skew;
    Alcotest.test_case "zipf s=0 is uniform" `Quick test_zipf_zero_exponent_is_uniform;
    Alcotest.test_case "fixed distribution" `Quick test_fixed;
    Alcotest.test_case "workload geometry (paper sizes)" `Quick test_workload_geometry;
    Alcotest.test_case "workload builds a valid volume" `Quick test_workload_builds_valid_volume;
    Alcotest.test_case "workload image is pinned" `Quick
      test_workload_image_pinned;
    Alcotest.test_case "one_lookup resolves and counts" `Quick test_one_lookup_resolves;
    Alcotest.test_case "set_active clamps" `Quick test_set_active_clamps;
    Alcotest.test_case "active prefix respected" `Quick test_active_prefix_respected;
    Alcotest.test_case "phase square wave flips the set" `Quick test_phase_square_wave;
    Alcotest.test_case "kv put/get/delete" `Quick test_kv_put_get_delete;
    Alcotest.test_case "kv bucket overflow" `Quick test_kv_bucket_overflow;
    QCheck_alcotest.to_alcotest prop_kv_matches_map;
  ]
