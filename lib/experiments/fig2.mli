(** Figure 2: a snapshot of cache contents for the directory-lookup
    workload under (a) a thread scheduler and (b) the O2 scheduler.

    Reproduced on the small 4-core test machine so the listing stays
    readable: 20 one-kilobyte directories against 1 KB L1s, 4 KB L2s and
    one 16 KB L3 — the same shape as the paper's figure, where the thread
    scheduler replicates hot directories and spills the rest off-chip
    while the O2 scheduler partitions all of them across the caches. *)

type snapshot = {
  scheduler : string;
  per_cache : (string * string list) list;
      (** Cache name, names of directories mostly (>= 50%) resident. *)
  off_chip : string list;  (** Directories mostly absent from every cache. *)
  distinct_lines : int;  (** Distinct data lines on chip. *)
  throughput : float;  (** kres/s over the run, for reference. *)
}

val fig2 : ?quick:bool -> ?jobs:int -> Format.formatter -> unit

(**/**)

val o2_policy : Coretime.Policy.t
(** For tests: the Figure 2 test runs one cell under this policy.
    {!Coretime.Policy.default} rescaled to the toy machine's 16-line
    directories (lower promote threshold, stable placement). *)

val run_one : policy:Coretime.Policy.t -> scheduler:string -> snapshot
(** For tests: the Figure 2 test compares one O2 cell with one thread-
    scheduler cell. *)
