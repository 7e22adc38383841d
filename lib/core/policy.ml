type placement = First_fit | Least_loaded | Random_fit of int

type t = {
  enabled : bool;
  promote_threshold : float;
  promote_min_ops : int;
  ewma_alpha : float;
  ct_overhead : int;
  op_shipping : bool;
  migrate_back : bool;
  budget_fraction : float;
  placement : placement;
  rebalance : bool;
  rebalance_period : int;
  overload_busy : float;
  idle_avail : float;
  demote_idle_periods : int;
  max_moves_per_rebalance : int;
  evict_for_hotter : bool;
  replicate_read_only : bool;
  replicate_min_ops : int;
  clustering : bool;
  cluster_min_coaccess : int;
}

let default =
  {
    enabled = true;
    promote_threshold = 32.0;
    promote_min_ops = 4;
    ewma_alpha = 0.4;
    ct_overhead = 60;
    op_shipping = false;
    migrate_back = true;
    budget_fraction = 0.9;
    placement = First_fit;
    rebalance = true;
    rebalance_period = 2_000_000;
    overload_busy = 0.85;
    idle_avail = 0.15;
    demote_idle_periods = 2;
    max_moves_per_rebalance = 64;
    evict_for_hotter = false;
    replicate_read_only = false;
    replicate_min_ops = 64;
    clustering = false;
    cluster_min_coaccess = 8;
  }

let baseline = { default with enabled = false }

let validate t =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  if t.promote_threshold < 0.0 then fail "promote_threshold < 0"
  else if t.ewma_alpha <= 0.0 || t.ewma_alpha > 1.0 then
    fail "ewma_alpha must be in (0, 1]"
  else if t.budget_fraction <= 0.0 || t.budget_fraction > 1.0 then
    fail "budget_fraction must be in (0, 1]"
  else if t.rebalance_period <= 0 then fail "rebalance_period <= 0"
  else if t.ct_overhead < 0 then fail "ct_overhead < 0"
  else if t.promote_min_ops < 1 then fail "promote_min_ops < 1"
  else Ok ()
