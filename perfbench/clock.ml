(* Wall-clock reads for the benchmark's own spans. [now_ns] is a C stub
   with an untagged result, so a read allocates nothing and can sit inside
   a client's op loop without adding minor collections. *)

external now_ns : unit -> (int[@untagged])
  = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9
