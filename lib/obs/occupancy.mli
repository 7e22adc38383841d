(** The cache observatory's occupancy tracker: who is resident where.

    Attached to a {!O2_simcore.Machine} observer, it mirrors every cache's
    contents incrementally — per-cache resident-line and distinct-object
    counts, a per-(cache, object) line-attribution matrix (via
    {!O2_simcore.Memsys.object_id_at}), fill/eviction/removal totals, and
    a bounded timeline of periodic whole-machine samples for the Perfetto
    counter tracks.

    Attaching costs: every simulated line fill, eviction and removal runs
    the bookkeeping above. Detached (the default), the machine's
    notification sites are single branches that allocate nothing — the
    standing zero-cost-when-off invariant, pinned by suite_hotpath. *)

type sample = {
  at : int;  (** Virtual time (cycles) of the sample. *)
  lines : int array;  (** Resident lines per cache, machine cache order. *)
  objs : int array;  (** Distinct resident objects per cache. *)
}

type t

val attach : ?interval:int -> ?timeline_capacity:int -> O2_simcore.Machine.t -> t
(** Subscribe an occupancy tracker for the machine's lifetime. [interval]
    (virtual cycles, default 100_000) paces the timeline samples;
    [timeline_capacity] (default 4096) bounds how many are retained
    (flight-recorder semantics: newest win). Tracking starts from the
    machine's current cache contents, so mid-run attachment stays
    consistent.
    @raise Invalid_argument if [interval <= 0]. *)

(** {2 Current state} *)

val cache_count : t -> int
(** Caches tracked, in {!O2_simcore.Machine.all_caches} order (all L1s,
    then L2s, then L3s); the index space of the accessors below. *)

val label : t -> int -> string

val distinct_lines : t -> int
(** {!O2_simcore.Machine.distinct_cached_lines} of the tracked machine —
    current distinct data on chip (the quantity the paper argues O2
    scheduling maximises; the sweeps report it per cell). *)

val replicated : t -> int
(** Lines currently held by two or more cores' private caches. *)

(** {2 Timeline} *)

val samples : t -> sample list
(** Retained periodic samples, oldest first. *)

val samples_dropped : t -> int

(** {2 Reports} *)

val render : t -> string
(** Per-cache summary table (capacity, resident lines, objects, fills,
    evictions, removals) plus the chip-level distinct/replicated line
    counts the paper's argument turns on. *)

(**/**)

val check : t -> (unit, string) result
(** For tests: the mirror's audit against the real caches.
    Audit the mirror against the actual caches: tracked line counts must
    equal {!O2_simcore.Cache.resident_lines}, attributions must not exceed
    them, object counts must recount. *)
