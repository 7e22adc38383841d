(** Workload phase control: time-varying popularity, driving Figure 4(b)'s
    oscillation and the rebalancer tests. *)

val oscillate_active :
  O2_runtime.Engine.t -> Dir_workload.t -> period:int -> divisor:int -> unit
(** Figure 4(b): every [period] cycles, the number of directories accessed
    alternates between the full set and [dirs / divisor] (paper: a
    sixteenth). *)
