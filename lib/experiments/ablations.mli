(** Ablations for the design choices and open questions of Sections 4 and
    6: migration-cost sensitivity, read-only replication, working sets
    beyond on-chip memory, object clustering, packing pathologies repaired
    by the rebalancer, and the thread-clustering comparator.

    Each ablation's independent simulation cells run through
    {!O2_runtime.Domain_pool} with [jobs] workers; [jobs = 1] is plain
    sequential execution and results are identical whatever [jobs] is. *)

val migration_cost :
  ?obs:Harness.obs ->
  quick:bool ->
  jobs:int ->
  Format.formatter ->
  unit
(** E6 — Section 6.1: sweep the end-to-end migration cost (active messages
    would lower it; slower interconnects raise it) at a fixed 8 MB working
    set and report CoreTime throughput against the baseline.
    [obs.metrics] appends per-cell op-latency percentile columns. *)

val replication : quick:bool -> jobs:int -> Format.formatter -> unit
(** E7 — Section 6.2: replicate hot read-only objects vs schedule them.
    Zipf-skewed, lock-free lookups: partitioning serialises the hot head
    on its home cores; replication lets every core read its own copy. *)

val overflow : quick:bool -> jobs:int -> Format.formatter -> unit
(** E8 — Section 6.2: working sets larger than total on-chip memory, with
    and without the frequency-aware replacement policy
    ([evict_for_hotter]). *)

val clustering : quick:bool -> jobs:int -> Format.formatter -> unit
(** E9 — Section 6.2: operations that use two objects; clustering
    co-locates the pair and halves migrations. *)

val rebalance :
  ?obs:Harness.obs ->
  quick:bool ->
  jobs:int ->
  Format.formatter ->
  unit
(** E11 — Section 4: first-fit packing piles the oscillating workload's
    shrunken active set onto few cores; the runtime monitor repairs it.
    Compares rebalancing on vs off. [obs.metrics] appends per-cell
    op-latency percentile columns. *)

val thread_clustering : quick:bool -> jobs:int -> Format.formatter -> unit
(** E12 — Section 2/7: thread clustering cannot help when every thread
    shares every directory; O2 scheduling can. *)

val op_shipping : quick:bool -> jobs:int -> Format.formatter -> unit
(** E13 — Section 6.1: carry operations by active message (~240 cycles)
    instead of full thread migration (~2000). Sweeps working-set sizes and
    shows shipping extends O2's advantage to smaller objects/operations. *)
