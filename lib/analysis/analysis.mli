(** o2check: attach every dynamic checker to a simulation and collect the
    diagnostics.

    {[
      let ct = Coretime.create engine () in
      let check = Analysis.attach ct in
      (* ... spawn threads, Engine.run ... *)
      Analysis.finish check;
      assert (Analysis.is_clean check)
    ]}

    Attaching subscribes one dispatcher to the engine's {!O2_runtime.Probe}
    that feeds the {!Lockset} race detector, the {!Lock_order} deadlock
    checker and the {!Invariants} checker. Addresses in diagnostics are
    resolved to object names through the machine's {!O2_simcore.Memsys}
    registry. *)

type t

val attach : ?granularity:int -> ?limit:int -> Coretime.t -> t
(** Full instrumentation: race + lock-order + invariants, with object
    table audits and the policy's [migrate_back] semantics. Attach before
    spawning threads so no event is missed. *)

val finish : t -> unit
(** Run the end-of-run audits. Idempotent; call after the last
    {!O2_runtime.Engine.run}. *)

val report : t -> Report.t
val is_clean : t -> bool

val pp : Format.formatter -> t -> unit

(**/**)

val attach_engine :
  ?granularity:int ->
  ?limit:int ->
  ?table:Coretime.Object_table.t ->
  ?migrate_back:bool ->
  O2_runtime.Engine.t ->
  t
(** For tests: the race and lock-order fixtures run raw engine workloads
    without a CoreTime instance.
    Like {!attach} for runs without a [Coretime.t] (raw engine
    workloads); table audits run only if [table] is given. *)

val diagnostics : t -> Diagnostic.t list
(** For tests: the fixtures assert on individual diagnostics, not the
    rendered report. *)

val races : t -> int
(** For tests: the race-detector fixtures count races directly. *)
