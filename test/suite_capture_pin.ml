(* A pin on the simulator's flight-recorder capture of the quickstart
   workload (~quick:true): how many op spans it reconstructs, how they
   split into classes, where their cycles went, and the migration count.
   The numbers only read the recorder's metrics registry, so they hold
   however the recorder stores its spans.

   The recorder stamps each record with the probe event's simulated
   time and a sink never lets a stamp go backwards (it clamps), so a
   capture is exact only if the probe stream is itself in nondecreasing
   time. A second listener checks that on the same run: no stamp needs
   clamping. *)

open O2_obs
module Hist = O2_runtime.Hist
module Probe = O2_runtime.Probe

let event_time = function
  | Probe.Mem { time; _ }
  | Probe.Lock_acquired { time; _ }
  | Probe.Lock_released { time; _ }
  | Probe.Thread_spawned { time; _ }
  | Probe.Thread_finished { time; _ }
  | Probe.Thread_moved { time; _ }
  | Probe.Op_requested { time; _ }
  | Probe.Op_started { time; _ }
  | Probe.Op_ended { time; _ }
  | Probe.Rebalanced { time; _ }
  | Probe.Decision { time; _ } ->
      time

let test_quickstart_capture_pinned () =
  let last = ref min_int and backwards = ref 0 and seen = ref 0 in
  let result =
    O2_experiments.Quickstart_exp.execute
      ~recorder_of:(fun engine -> Recorder.attach engine)
      ~attach:(fun ct ->
        Probe.subscribe (O2_runtime.Engine.probe (Coretime.engine ct)) (fun ev ->
            let t = event_time ev in
            incr seen;
            if t < !last then incr backwards;
            last := max !last t))
      ~quick:true ()
  in
  let r = Option.get result.O2_experiments.Quickstart_exp.recorder in
  let m = Recorder.metrics r in
  let count name = Hist.count (Metrics.hist m name) in
  let sum name = Hist.sum (Metrics.hist m name) in
  Alcotest.(check int) "completed ops" 480 result.O2_experiments.Quickstart_exp.ops;
  Alcotest.(check int) "spans" 480 (Metrics.counter_value m "ops");
  Alcotest.(check int) "home-hit spans" 41 (count "op/home_hit");
  Alcotest.(check int) "remote spans" 30 (count "op/remote");
  Alcotest.(check int) "migrated spans" 409 (count "op/migrated");
  Alcotest.(check int) "queue cycles" 28_800 (sum "op/queue");
  Alcotest.(check int) "migrate cycles" 44_278_720 (sum "op/migrate");
  Alcotest.(check int) "exec cycles" 9_574_358 (sum "op/exec");
  Alcotest.(check int) "op/latency n" 480 (count "op/latency");
  Alcotest.(check int) "op/latency sum" 53_881_878 (sum "op/latency");
  Alcotest.(check int) "migrations" 818 (Metrics.counter_value m "migrations");
  Alcotest.(check bool) "the probe stream was seen" true (!seen > 0);
  Alcotest.(check int) "no stamp would be clamped" 0 !backwards

let suite =
  [
    Alcotest.test_case "quickstart capture is pinned" `Quick
      test_quickstart_capture_pinned;
  ]
