(** Quiescent-side readers for a {!O2_runtime.Telemetry} capture, on
    either backend: the k-way merge, op span reconstruction, and the
    native backend's metrics import.

    Stamps are in the capture's {!O2_runtime.Telemetry.clock}: simulated
    cycles on the simulator, [CLOCK_MONOTONIC] nanoseconds on native
    ({!time_unit} names it). Read a native capture only after
    [Native_pool.drain] returned: the sinks are single-writer and
    unsynchronised by design. *)

type event = {
  ts : int;  (** Monotonic per sink. *)
  sink : int;
      (** Writer: worker or core index, or [domains] = the coordinator
          (the monitor on the simulator). *)
  kind : O2_runtime.Telemetry.kind;
  a : int;
  b : int;
  c : int;
}

val merged_events : O2_runtime.Telemetry.t -> event array
(** The k-way merge of every sink's ring. Each ring is nondecreasing by
    construction (writers clamp their stamps), so this is a cursor
    merge with no sort: globally nondecreasing [ts], ties broken toward
    the lower sink id — a total, deterministic order. Empty on the
    disabled instance. *)

(** One operation's reconstructed life, possibly spanning two sinks:
    submitted on [submit_sink], executed on [exec_sink] (they differ
    exactly when the op shipped to its object's home). *)
type span = {
  token : int;
  obj : int;
      (** Native object id; on the simulator, the object's base
          address. *)
  home : int;
      (** The core the op started on when its object had a home there
          (a native op always starts on its home); [-1] when the object
          was unassigned. *)
  submit_sink : int;
  submit_ts : int;
  ship_out_ts : int;  (** [-1] when the op ran where it was submitted. *)
  ship_in_ts : int;
      (** The landing: the [Ship_in] record, or the start when the
          capture has none (the simulator writes none — its ops land as
          they start). *)
  ship_dst : int;
  exec_sink : int;
  start_ts : int;
  end_ts : int;
}

val submitted : token:int -> obj:int -> sink:int -> ts:int -> span
(** A span of which only the [Submit] has been seen. *)

val shipped : span -> bool

val queue : span -> int
(** Submit to departure, or to start when the op did not ship:
    annotation overhead plus the time to leave the core. *)

val migrate : span -> int
(** Departure to start — the transfer and landing; [0] unshipped. *)

val exec : span -> int
(** Start to end: the operation body. *)

type op_class =
  | Home_hit  (** Not shipped; the object had a home, the op was on it. *)
  | Remote  (** Not shipped; the object had no home. *)
  | Migrated  (** Shipped to reach the object's home. *)

val classify : span -> op_class
val class_name : op_class -> string

val spans_of_events : event array -> span list * int
(** Replay a merged stream into completed spans (in the order their
    [End] records appear) plus the count of incomplete ones — spans
    that lost records to the ring bound, or were still running when the
    capture was read, withheld rather than emitted half-built. A span
    is built from all of its token's records wherever they sit in the
    stream, so it does not depend on how the merge orders records of
    different sinks with equal stamps. *)

val spans : O2_runtime.Telemetry.t -> span list * int
(** [spans_of_events (merged_events tel)]. *)

val accounting : O2_runtime.Telemetry.t -> string
(** One line of ring accounting: complete and incomplete spans, records
    retained and dropped by the bound. *)

val time_unit : O2_runtime.Telemetry.t -> string
(** ["simulated cycles"] or ["wall-clock ns"], from the capture's
    clock. *)

val decision_kinds : string array
(** Names of a [Decision] record's kind ([a]), by index. *)

val metrics : O2_runtime.Telemetry.t -> Metrics.t
(** Import a native capture into a {!Metrics} registry: the per-sink
    latency histograms merge into [op_ns/home], [op_ns/shipped],
    [op_ns/ship_delay] and [op_ns/exec], and the counters (steals,
    ships, parks, wakes, spawns, inbox batches/tasks, ops submitted,
    events retained/dropped) sum across sinks. Render with [O2top.render ~capture]. *)
