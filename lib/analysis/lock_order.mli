(** Lock discipline checks: a global lock-order graph with cycle
    detection (potential deadlock), release-by-owner verification, and
    threads finishing while still holding locks.

    The simulated runs are deterministic, so an actual deadlock may never
    manifest on the schedule being observed — the order graph flags the
    {e potential}: if thread A ever takes [l1] then [l2] while thread B
    takes [l2] then [l1], some interleaving deadlocks, and the checker
    reports the cycle whether or not this run hit it. *)

type t

val create : report:Report.t -> unit -> t
val on_event : t -> O2_runtime.Probe.event -> unit

val finish : t -> unit
(** End-of-run sweep; currently nothing to flush (held-at-exit is
    reported per thread on its [Thread_finished] event, because a thread
    legitimately holds its locks when a bounded-horizon run stops
    mid-operation), but callers should still invoke it for symmetry with
    the other checkers. *)
