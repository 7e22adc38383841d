(* Wall-clock ratio checks for the complexity claims: [best_of_ns ~runs f]
   is the fastest of [runs] timed calls of [f], so a run slowed by a
   preempting neighbour does not count against the claim. *)

let best_of_ns ~runs f =
  let best = ref max_int in
  for _ = 1 to runs do
    let t0 = O2_runtime.Telemetry.now_ns () in
    f ();
    best := Int.min !best (O2_runtime.Telemetry.now_ns () - t0)
  done;
  !best
