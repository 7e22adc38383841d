(** The operations a simulated thread may perform.

    Workload code is written in direct style, like the paper's Figure 1
    pseudocode; each of these functions performs an OCaml effect that the
    {!Engine} interprets, charging virtual cycles and moving cache lines.
    They may only be called from inside a thread spawned with
    {!Engine.spawn}.

    @raise Effect.Unhandled if called outside a simulated thread. *)

type _ Effect.t +=
  | Read : { addr : int; len : int } -> int Effect.t
  | Write : { addr : int; len : int } -> int Effect.t
  | Compute : int -> unit Effect.t
  | Lock_acquire : Spinlock.t -> unit Effect.t
  | Lock_release : Spinlock.t -> unit Effect.t
  | Migrate_to : int -> unit Effect.t
  | Ship_to : int -> unit Effect.t
  | Yield : unit Effect.t
  | Self : Thread.t Effect.t
  | Now : int Effect.t

val read : addr:int -> len:int -> int
(** Load [len] bytes; returns the access's cost in cycles (callers usually
    ignore it — it is exposed for instrumentation). *)

val write : addr:int -> len:int -> int
(** Store [len] bytes (coherence write: invalidates remote copies). *)

val compute : int -> unit
(** Execute for the given number of cycles without touching memory. *)

val lock : Spinlock.t -> unit
(** Acquire a spin lock. Spinning occupies the calling core, exactly as a
    user-level spin lock does under cooperative threading. *)

val unlock : Spinlock.t -> unit
(** Release a spin lock owned by the calling thread.
    @raise Invalid_argument (via the engine) if not the owner. *)

val migrate_to : int -> unit
(** Move this thread to another core; costs the configured migration
    cycles end to end. A no-op if already there. *)

val ship_to : int -> unit
(** Move execution to another core by active message (paper Section 6.1):
    only an operation descriptor crosses the interconnect — no context
    save/restore, no stack, no destination polling — so it costs the
    machine's [amsg_*] cycles (≈240 on {!O2_simcore.Config.amd16}) instead
    of ≈2000. Semantically identical to {!migrate_to}. *)

val self : unit -> Thread.t
val now : unit -> int
(** The calling core's virtual clock. *)

(**/**)

val yield : unit -> unit
(** For tests: the engine's round-robin test.
    Let the next runnable thread on this core run. *)

val current_core : unit -> int
(** For tests: checks where an op body ran. *)
