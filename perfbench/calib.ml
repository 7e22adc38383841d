(* Host-speed calibration. On a shared host the benchmark's speed changes
   in phases of seconds to minutes (other tenants on the same cores and
   caches), so a whole run can land in a slow phase. The benchmark
   therefore runs a fixed kernel of its own next to each unit of measured
   work and reports that work's time divided by [factor ** exponent],
   where [factor] is the kernel's time over its nominal time: the time the
   work would have taken on the host in a quiet phase. The kernel belongs
   to the benchmark, so a change to the program moves the scaled figures
   exactly as much as the raw ones.

   The kernel makes independent read-modify-writes at random slots of a
   table, with a data-dependent branch. It is throughput-bound like the
   program's own table probes, so it slows in the same phases; a
   latency-bound loop (an ALU chain or a pointer chase) barely does. The
   exponent is a workload's sensitivity to those phases relative to the
   kernel, fitted once on a 2-vCPU x86-64 host: log(work time) against
   log(factor) over runs that spanned slow and fast phases. *)

type t = {
  table : int array;
  iters : int;
  nominal_ns : float;  (** The kernel's time on a quiet host. *)
  mutable sink : int;
}

(* [words] is the table size: a power of two. *)
let create ~words ~iters ~nominal_ns =
  { table = Array.make words 0; iters; nominal_ns; sink = 0 }

(* The native workloads' kernel: a 256 KB table, cache-resident like the
   stores the clients probe. *)
let native () = create ~words:(1 lsl 15) ~iters:20_000 ~nominal_ns:260_000.0

(* The simulator's kernel: an 8 MB table, beyond the core's own caches
   like the simulated machine's state. *)
let sim () = create ~words:(1 lsl 20) ~iters:40_000 ~nominal_ns:940_000.0

let kernel a n =
  let mask = Array.length a - 1 in
  let x = ref 0x1234567 and acc = ref 0 in
  for _ = 1 to n do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    let i = v land mask and j = (v lsr 20) land mask in
    let c = Array.unsafe_get a i in
    if c land 3 = 0 then Array.unsafe_set a j (Array.unsafe_get a j + c)
    else acc := !acc + c;
    Array.unsafe_set a i (c + 1)
  done;
  !acc

(* One run of the kernel: its time over the nominal time, above 1 in a
   slow phase. *)
let factor t =
  let t0 = Clock.now_ns () in
  let r = kernel t.table t.iters in
  let ns = Clock.now_ns () - t0 in
  t.sink <- t.sink lxor r;
  float_of_int ns /. t.nominal_ns

(* A measured time in ns at the quiet host's speed. *)
let scale ~exponent factor ns = float_of_int ns /. (factor ** exponent)
