(** Per-process accounting (paper Section 6.2): a system-wide O2 scheduler
    must know which process owns each object and its operations to
    implement priorities and fairness.

    CoreTime charges each completed operation's busy cycles to the owning
    process; schedulers and tests read the resulting shares. *)

type t

val create : unit -> t
val charge : t -> pid:int -> cycles:int -> unit
val ops : t -> pid:int -> int
val share : t -> pid:int -> float
(** Fraction of all charged cycles consumed by [pid] (0 if none charged). *)

val pids : t -> int list

(**/**)

val cycles : t -> pid:int -> int
(** For tests: checks the per-process charge behind {!share}. *)

val total_cycles : t -> int
(** For tests: checks the total behind {!share}. *)
