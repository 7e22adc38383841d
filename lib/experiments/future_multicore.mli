(** E10 — Section 6.1, "Future Multicores": on a hypothetical 64-core
    machine with more cores per unit of off-chip bandwidth, larger
    per-core caches, and hardware-assisted (cheap) migration, O2
    scheduling should pay off for a larger range of working sets. Sweeps
    the same benchmark on {!O2_simcore.Config.future64} and compares the
    speedup band against the 16-core machine's. *)

val run : quick:bool -> jobs:int -> Format.formatter -> unit
