(** Telemetry sinks: the flight recorder's capture, on both backends.

    Real domains need a sink per writer. Worker [d] owns sink [d]; the
    coordinator (the thread calling [drain]/[rebalance]) owns sink
    [domains]. The owner is the only writer — no atomics, no locks, no
    cross-domain writes on the hot path — and readers (the merge,
    metrics and trace exporters in [O2_obs]) may only look while the
    pool is quiescent. The simulator's recorder writes the same records
    from its probe listener: one sink per simulated core, the monitor in
    the coordinator's slot, stamped with simulated cycles.

    Each sink holds

    - a bounded ring of fixed-width records stamped with the capture's
      {!clock}, clamped per-writer to be nondecreasing (so each ring is
      sorted by construction and the k-way merge needs no sort). A full
      ring drops new records (drop-newest) and counts them: the
      retained window is a prefix;
    - plain counters (steals, ships, parks, wakes, inbox batches);
    - log2 latency histograms ({!Hist}) fed by [with_op] with
      timestamps carried in locals across domain handoffs — latency
      percentiles need no ring traffic, which is what makes
      metrics-only telemetry ([ring_capacity = 0]) cheap enough to
      leave attached while measuring throughput.

    Zero-cost when off: call sites guard on {!enabled}, so the disabled
    instance never reaches a clock read or an array write; the guarded
    paths are pinned allocation-free by suite_hotpath and the
    o2staticcheck manifest. *)

type t
type sink

(** {1 Lifecycle} *)

(** What a record's stamp counts; fixed by the constructor. *)
type clock =
  | Wall_ns  (** [CLOCK_MONOTONIC] nanoseconds (the native backend). *)
  | Cycles of float
      (** Simulated cycles of a machine clocked at this many GHz. *)

val create : ?ring_capacity:int -> ?sample:int -> domains:int -> unit -> t
(** Wall-clock telemetry for a pool of [domains] workers ([domains + 1]
    sinks, the extra one for the coordinator). [ring_capacity] (default
    [2^16]) is records per sink; [0] means metrics-only — no ring events
    at all. [sample] (default 1) keeps the span events of 1-in-[sample]
    ops in the ring ([0] = none); steals, parks, wakes, inbox batches,
    rebalances and quiesces are always recorded. At most 1023 domains
    (token packing).
    @raise Invalid_argument on out-of-range arguments. *)

val create_simulated :
  ring_capacity:int -> sample:int -> cores:int -> ghz:float -> t
(** A capture of a simulated machine: [cores] core sinks plus the
    monitor's in the coordinator slot, stamped in {!Cycles}[ ghz]. The
    arguments are checked as in {!create}. *)

val clock : t -> clock

val off : t
(** The disabled instance: {!enabled} is [false], sinks are inert. *)

val enabled : t -> bool
val domains : t -> int
val sample : t -> int

val sink : t -> int -> sink
(** Worker [d]'s sink (index [domains] is the coordinator's). On the
    disabled instance returns an inert dummy for any index. *)

val coordinator : t -> sink

val sink_array : t -> n:int -> sink array
(** The [n] worker sinks as an array (coordinator excluded), or [n]
    inert dummies when disabled — prefetched by the pool/backend so hot
    paths index an array instead of calling {!sink}.
    @raise Invalid_argument if enabled and [n <> domains]. *)

val sink_at : sink array -> int -> sink
(** [sink_at a d] is [a.(d)]: the hot paths index a {!sink_array}
    through it, since out here [sink] is abstract and a direct index
    would test for a float array on every load. *)

(** {1 The clock} *)

val now_ns : unit -> int
(** [CLOCK_MONOTONIC] in nanoseconds, read through a repo-local noalloc
    C stub with an untagged result: a read allocates nothing. *)

(** {1 Event kinds} *)

type kind =
  | Steal  (** [a] = victim domain *)
  | Park
  | Wake
  | Inbox_batch  (** [a] = tasks delivered by one drain *)
  | Spawned  (** [a] = target domain *)
  | Submit  (** [a] = token, [b] = obj *)
  | Ship_out  (** [a] = token, [b] = obj, [c] = destination domain *)
  | Ship_in  (** [a] = token, [b] = obj, [c] = source domain *)
  | Start
      (** [a] = token, [b] = obj, [c] = home: the writing sink natively
          (an op starts on its home), [-1] on the simulator when the
          object has none *)
  | End  (** [a] = token, [b] = obj *)
  | Rebalance  (** [a] = moves, [b] = demotions *)
  | Quiesce
  | Decision  (** [a] = decision kind, [b] = obj, [c] = core *)

(** {1 Writers — owner domain only} *)

val note_steal : sink -> victim:int -> unit
val note_park : sink -> unit
val note_wake : sink -> unit
val note_inbox_batch : sink -> count:int -> unit
val note_spawned : sink -> core:int -> unit

val op_submit : sink -> obj:int -> int
(** Mint this op's token and record its [Submit] event if sampled in.
    Returns [-1] when sampled out — pass it along anyway; the ship/
    start/end writers ignore negative tokens while still counting. *)

val op_submit_at : sink -> ts:int -> obj:int -> int
(** {!op_submit} with an explicit stamp, for writers with their own
    clock (the simulator's recorder). *)

val note_ship_out : sink -> token:int -> obj:int -> dst:int -> unit
val note_ship_in : sink -> token:int -> obj:int -> src:int -> unit
val note_start : sink -> token:int -> obj:int -> unit
val note_end : sink -> token:int -> obj:int -> unit

val observe_home : sink -> int -> unit
(** Submit-to-end nanoseconds of an op that ran on its submitter. *)

val observe_shipped : sink -> int -> unit
(** Submit-to-end nanoseconds of an op that shipped to its home. *)

val observe_ship_delay : sink -> int -> unit
(** Submit-to-start nanoseconds, shipped ops only. *)

val observe_exec : sink -> int -> unit
(** Start-to-end nanoseconds, all ops. *)

val note_rebalance : sink -> moves:int -> unit
val note_quiesce : sink -> unit

val record_at :
  sink -> ts:int -> kind:kind -> a:int -> b:int -> c:int -> unit
(** Low-level append with an explicit timestamp (still clamped to the
    sink's nondecreasing order): the simulator's recorder writes with
    it, as do tests. The native paths use the typed writers above. *)

(** {1 Readers — quiescence only} *)

val sink_id : sink -> int
val length : sink -> int
(** Records retained in the ring. *)

val dropped : sink -> int
(** Records dropped because the ring was full (drop-newest). *)

val ts : sink -> int -> int
val kind : sink -> int -> kind
val arg0 : sink -> int -> int
val arg1 : sink -> int -> int
val arg2 : sink -> int -> int

val steals : sink -> int
val ships_out : sink -> int
val ships_in : sink -> int
val parks : sink -> int
val wakes : sink -> int
val spawns : sink -> int
val inbox_batches : sink -> int
val inbox_tasks : sink -> int
val max_batch : sink -> int
val ops_submitted : sink -> int

(** {1 Latency histograms}

    The live histograms: read them at quiescence, and do not add to
    them. *)

val lat_home : sink -> Hist.t
val lat_shipped : sink -> Hist.t
val lat_ship_delay : sink -> Hist.t
val lat_exec : sink -> Hist.t

(** {1 Aggregates} *)

val fold_sinks : t -> init:'a -> f:('a -> sink -> 'a) -> 'a
(** Folds over all [domains + 1] sinks; [init] on the disabled
    instance. *)

val total_dropped : t -> int
val total_events : t -> int
(** Retained + dropped across every sink. *)
