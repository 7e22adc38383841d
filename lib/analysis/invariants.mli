(** The O2 runtime invariant checker — the properties the paper's design
    depends on (PAPER.md section 4) that the engine itself does not
    enforce:

    - {b nesting}: [ct_start]/[ct_end] frames balance per thread; a
      thread must not finish with operations still open, and runaway
      nesting depth (a [ct_end] skipped in a loop) is flagged;
    - {b home-core affinity}: an operation on an object with a home core
      executes — and therefore is charged — on that core: the
      [Op_started] event must already be at home, and every memory access
      until the matching [Op_ended] must stay there;
    - {b table consistency}: per-core packed bytes never exceed the cache
      budget, the byte accounting matches the actual assignments, and no
      entry's home core is out of range — audited after every rebalancer
      period and once more in {!finish}, so a monitor bug is caught the
      period it happens. *)

type t

val create :
  report:Report.t ->
  name_of:(int -> string option) ->
  ?table:Coretime.Object_table.t ->
  ?cores:int ->
  ?migrate_back:bool ->
  unit ->
  t
(** [table]/[cores] enable the table audits. [migrate_back] mirrors
    [Policy.migrate_back] (default [true]): when false, a thread
    legitimately stays on an inner operation's home core after the inner
    [ct_end], so the enclosing frame's affinity pin is relaxed instead of
    enforced. *)

val on_event : t -> O2_runtime.Probe.event -> unit

val finish : t -> unit
(** Final table audit. *)
