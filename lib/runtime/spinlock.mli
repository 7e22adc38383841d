(** Per-object spin locks, as added to each directory in the paper's
    file-system benchmark (Section 5, "Setup").

    A lock occupies its own cache line in simulated memory, so contended
    acquisition bounces the line between cores through the coherence
    protocol — which is what makes the far-left region of Figure 4 slow
    both with and without CoreTime. Acquisition and release are performed
    through {!Api.lock} / {!Api.unlock} from inside a simulated thread; this
    module only defines the lock state and its statistics. *)

type waiter = {
  thread : Thread.t;
  attempt : int;  (** Virtual time the acquire was attempted. *)
  grant : int -> unit;  (** Called by the engine at hand-off time. *)
}

type t = {
  name : string;
  addr : int;  (** The lock word's address (its own line). *)
  mutable owner : int option;  (** Owning thread id. *)
  waiters : waiter Queue.t;
  mutable acquisitions : int;
  mutable contended : int;  (** Acquisitions that had to wait. *)
}

val create : O2_simcore.Memsys.t -> name:string -> t
(** Allocates an isolated line for the lock word. *)

(**/**)

val held : t -> bool
(** For tests: checks lock state after a run. *)

val owner : t -> int option
(** For tests: checks lock ownership after a run.
    The owning thread id, when held. *)
