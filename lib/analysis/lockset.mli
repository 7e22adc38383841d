(** Eraser-style lockset data-race detection over the simulated machine
    (Savage et al., "Eraser: a dynamic data race detector", adapted to the
    O2 runtime).

    The checker consumes {!O2_runtime.Probe} events. For every simulated
    cache line it keeps a shadow state — virgin, exclusive to the first
    accessing thread, or shared — and the {e candidate lockset}: the
    intersection of the locks every thread held while touching the line
    after it became shared. A line that has been written and whose
    candidate set becomes empty is reported as a data race, attributed to
    the object containing it (via the address resolver) and to the two
    cores/threads whose accesses exposed it.

    Two O2-specific refinements:

    - lock words never appear here (the engine reports them as lock
      events, not memory traffic), so lock bouncing is not misreported;
    - an annotated operation running on its object's home core counts as
      holding a {e virtual per-object home lock}: CoreTime serialises
      operations on an object by migrating them all to one cooperative
      core, which is a synchronisation discipline Eraser's ordinary rules
      cannot see. Accesses that bypass the annotation (or run away from
      home) do not hold the virtual lock, so mixed disciplines still
      intersect to empty and are flagged. *)

type t

val create :
  ?granularity:int ->
  report:Report.t ->
  name_of:(int -> string option) ->
  unit ->
  t
(** [granularity] (bytes, default 64) sets the shadow-cell width; it must
    be a power of two. [name_of addr] resolves an address to the name of
    the object containing it, for attribution. *)

val on_event : t -> O2_runtime.Probe.event -> unit

val races_found : t -> int
