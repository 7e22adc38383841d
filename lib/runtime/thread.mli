(** A cooperative simulated thread.

    Mirrors CoreTime's threading model (Section 4, "Implementation"): each
    simulated core runs one pinned worker, and threads within it are
    cooperative — they only leave a core at explicit points (migration,
    yield, lock hand-off, termination). *)

type state =
  | Runnable  (** On some core's run queue or currently executing. *)
  | Spinning  (** Blocked acquiring a spin lock (occupies its core). *)
  | Migrating  (** Context in flight between cores. *)
  | Finished

type ctx = ..
(** An open slot for scheduler layers (CoreTime) to hang per-thread
    state off the thread itself — e.g. the stack of open operation
    frames. *)

type ctx += No_ctx  (** Initial value: nothing attached. *)

type t = {
  id : int;
  name : string;
  origin_core : int;  (** The core the thread was spawned on. *)
  mutable core : int;  (** Where it is currently placed. *)
  mutable state : state;
  mutable migrations : int;  (** How many times it has migrated. *)
  mutable ctx : ctx;  (** See {!type:ctx}. *)
}

val make : id:int -> name:string -> core:int -> t
