open O2_simcore

let test_alloc_alignment () =
  let mem = Memsys.create ~line_bytes:64 () in
  let a = Memsys.alloc mem ~name:"a" ~size:10 in
  let b = Memsys.alloc mem ~name:"b" ~size:100 in
  Alcotest.(check int) "line aligned" 0 (a.Memsys.base mod 64);
  Alcotest.(check int) "rounded to whole lines" 64 a.Memsys.size;
  Alcotest.(check bool) "no overlap" true (b.Memsys.base >= a.Memsys.base + a.Memsys.size);
  Alcotest.(check int) "two extents" 2 (Memsys.size mem)

let test_object_at () =
  let mem = Memsys.create ~line_bytes:64 () in
  let a = Memsys.alloc mem ~name:"a" ~size:128 in
  let b = Memsys.alloc mem ~name:"b" ~size:64 in
  let get addr =
    Option.map (fun e -> e.Memsys.name) (Memsys.object_at mem ~addr)
  in
  Alcotest.(check (option string)) "first byte" (Some "a") (get a.Memsys.base);
  Alcotest.(check (option string)) "last byte" (Some "a")
    (get (a.Memsys.base + 127));
  Alcotest.(check (option string)) "next object" (Some "b") (get b.Memsys.base);
  Alcotest.(check (option string)) "before all" None (get 0);
  Alcotest.(check (option string)) "past end" None
    (get (b.Memsys.base + b.Memsys.size))

let test_find_and_lines () =
  let mem = Memsys.create ~line_bytes:64 () in
  let a = Memsys.alloc mem ~name:"a" ~size:130 in
  Alcotest.(check bool) "find by id" true (Memsys.find mem a.Memsys.id = Some a);
  Alcotest.(check int) "3 lines for 130 bytes" 3 (Memsys.lines_of mem a);
  Alcotest.check_raises "find_exn unknown"
    (Invalid_argument "Memsys.find_exn: no object 99") (fun () ->
      ignore (Memsys.find_exn mem 99))

let test_rejects_bad_alloc () =
  let mem = Memsys.create ~line_bytes:64 () in
  Alcotest.check_raises "zero size"
    (Invalid_argument "Memsys.alloc: size must be positive") (fun () ->
      ignore (Memsys.alloc mem ~name:"x" ~size:0))

let dram () =
  let cfg = Config.amd16 in
  (cfg, Dram.create cfg (Topology.create cfg))

let test_dram_idle_fetch () =
  let cfg, d = dram () in
  let cost = Dram.fetch d ~now:0 ~from_chip:0 ~home_chip:0 ~lines:1 in
  Alcotest.(check int) "latency + one service slot"
    (cfg.Config.dram_latency + cfg.Config.dram_service)
    cost

let test_dram_queueing () =
  let cfg, d = dram () in
  let c1 = Dram.fetch d ~now:0 ~from_chip:0 ~home_chip:0 ~lines:10 in
  (* second burst at the same instant queues behind the first *)
  let c2 = Dram.fetch d ~now:0 ~from_chip:0 ~home_chip:0 ~lines:10 in
  Alcotest.(check int) "first: latency + 10 slots"
    (cfg.Config.dram_latency + (10 * cfg.Config.dram_service))
    c1;
  Alcotest.(check int) "second waits for the first's slots"
    (c1 + (10 * cfg.Config.dram_service))
    c2;
  (* a different chip's controller is independent *)
  let c3 = Dram.fetch d ~now:0 ~from_chip:1 ~home_chip:1 ~lines:1 in
  Alcotest.(check int) "other controller idle"
    (cfg.Config.dram_latency + cfg.Config.dram_service)
    c3

let test_dram_drains () =
  let cfg, d = dram () in
  ignore (Dram.fetch d ~now:0 ~from_chip:0 ~home_chip:0 ~lines:10);
  let free = Dram.controller_free_at d ~chip:0 in
  let cost = Dram.fetch d ~now:(free + 100) ~from_chip:0 ~home_chip:0 ~lines:1 in
  Alcotest.(check int) "no queueing after drain"
    (cfg.Config.dram_latency + cfg.Config.dram_service)
    cost

let test_dram_zero_lines () =
  let _, d = dram () in
  Alcotest.(check int) "zero lines free" 0
    (Dram.fetch d ~now:0 ~from_chip:0 ~home_chip:0 ~lines:0)

let suite =
  [
    Alcotest.test_case "alloc aligns and rounds" `Quick test_alloc_alignment;
    Alcotest.test_case "object_at boundaries" `Quick test_object_at;
    Alcotest.test_case "find and lines_of" `Quick test_find_and_lines;
    Alcotest.test_case "alloc rejects bad sizes" `Quick test_rejects_bad_alloc;
    Alcotest.test_case "dram idle fetch cost" `Quick test_dram_idle_fetch;
    Alcotest.test_case "dram bandwidth queueing" `Quick test_dram_queueing;
    Alcotest.test_case "dram queue drains" `Quick test_dram_drains;
    Alcotest.test_case "dram zero-line fetch" `Quick test_dram_zero_lines;
  ]
