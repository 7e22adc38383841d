(** One cache array (an L1, an L2 or an L3): an LRU set of lines tagged
    with its identity. Placement and coherence live in {!Machine}; this
    module only answers "is line [l] here?" and maintains recency.
    Hit/miss/eviction accounting lives in the per-core {!Counters} that
    {!Machine} maintains — a probe is exactly an LRU touch. *)

type level = L1 | L2 | L3

type t

type watcher = {
  on_fill : t -> line:int -> victim:int -> unit;
      (** Called after every {!fill_evict} and {!fill_absent}; [victim] is the evicted line or
          [-1]. The cache already contains [line] and no longer contains the
          victim when the watcher runs. *)
  on_remove : t -> line:int -> unit;
      (** Called after a present line leaves by {!drop}
          (evictions are reported as the [victim] of [on_fill]). *)
}
(** Observation hook for the cache observatory. At most one watcher per
    cache; {!Machine.observe} installs a forwarder that fans out. Watchers
    must only observe — they run on the access hot path and must not touch
    cache or simulator state. With no watcher the notification sites cost a
    single immediate match (zero allocation, pinned by suite_hotpath). *)

val create : level -> owner:int -> cap_bytes:int -> line_bytes:int -> t
(** [owner] is a core id for L1/L2 and a chip id for L3. *)

val set_watcher : t -> watcher option -> unit

val level : t -> level
val owner : t -> int
val capacity_lines : t -> int
val resident_lines : t -> int

val probe_run : t -> int -> int -> int
(** [probe_run t first last] probes [first], [first + 1], ... up to
    [last] while each line is present ({!Lru.touch_run}): the number of
    lines that hit, whose recency ends as after probing them one by one. *)

val contains : t -> int -> bool
(** Membership without touching recency (for assertions and snapshots). *)

val fill_evict : t -> int -> int
(** Insert a line after a miss: the evicted victim line, or [-1] when
    nothing was evicted. Allocation-free. *)

val fill_absent : t -> int -> int
(** {!fill_evict} for a line the caller has just probed and missed: no
    second lookup. The access path's fills all use this. The line must be
    absent. *)

val drop : t -> int -> bool
(** Removal (coherence invalidation, the L3's exclusive hand-back, a
    flush); returns whether the line was present. *)

val iter_lines : (int -> unit) -> t -> unit
val name : t -> string
(** e.g. ["L2[core3]"] or ["L3[chip1]"]. *)

(**/**)

val probe : t -> int -> bool
(** For tests: a lookup that touches recency, checked against the LRU.
    [probe t line] is a lookup for the access path: touches the line's
    recency and reports whether it was present. *)
