(** Tunable policy for the CoreTime scheduler.

    {!default} reproduces the behaviour described in the paper's Section 4;
    {!baseline} turns CoreTime off entirely (the "without CoreTime"
    configuration of Figure 4); the remaining knobs drive the Section 6
    ablations. *)

type placement =
  | First_fit
      (** The paper's greedy first fit, in core order (the default). Can
          concentrate popular objects on low-numbered cores — the
          pathology the runtime monitor repairs. *)
  | Least_loaded
      (** First fit over cores ordered by free budget (ablation). *)
  | Random_fit of int  (** Random core with space (seeded); ablation. *)

type t = {
  enabled : bool;  (** False = annotations are free no-ops (baseline). *)
  promote_threshold : float;
      (** Promote an object to the table when its per-operation cache-miss
          EWMA exceeds this ("expensive to fetch"). *)
  promote_min_ops : int;
      (** Observe at least this many operations before promoting, so a
          single cold scan does not pin a cache-resident object. *)
  ewma_alpha : float;  (** Weight of the latest operation in the EWMA. *)
  ct_overhead : int;
      (** Cycles charged for the [ct_start] table lookup when enabled. *)
  op_shipping : bool;
      (** Carry operations to their objects by active message
          (Section 6.1) instead of full thread migration: ~240 cycles
          each way instead of ~2000 on the default machine. *)
  migrate_back : bool;
      (** Return the thread to the core it started on at [ct_end]. *)
  budget_fraction : float;
      (** Fraction of {!O2_simcore.Config.per_core_budget} the packer may
          fill. *)
  placement : placement;
  rebalance : bool;  (** Run the periodic monitor/rebalancer. *)
  rebalance_period : int;  (** Cycles between monitor runs. *)
  overload_busy : float;
      (** Busy(+spin) ratio above which a core is considered saturated. *)
  idle_avail : float;
      (** Idle ratio above which a core may receive moved objects. *)
  demote_idle_periods : int;
      (** Unassign an object untouched for this many monitor periods. *)
  max_moves_per_rebalance : int;
  evict_for_hotter : bool;
      (** Section 6.2 replacement policy for working sets larger than
          on-chip memory: each monitor period, displace cold assigned
          objects in favour of markedly hotter unassigned ones. *)
  replicate_read_only : bool;
      (** Section 6.2 tradeoff: leave hot read-only objects unassigned so
          the hardware replicates them. *)
  replicate_min_ops : int;
      (** Popularity (ops/period) above which a read-only object is
          left to replicate. *)
  clustering : bool;
      (** Section 6.2: co-locate objects frequently used by one
          operation. *)
  cluster_min_coaccess : int;
}

val default : t
val baseline : t

val validate : t -> (unit, string) result
