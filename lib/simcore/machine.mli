(** The simulated multicore machine: per-core L1/L2, per-chip L3, a
    coherence presence directory, bandwidth-limited DRAM and per-core event
    counters.

    {!read} and {!write} are the only operations workload code performs;
    they walk the same path real loads take on the paper's AMD system —
    L1, L2, local L3, then the nearest remote cache located by snooping,
    then the home DRAM bank — charge the corresponding latencies
    (3 / 14 / 75 / 127..336 cycles on {!Config.amd16}), move lines between
    caches, and maintain the presence directory. Placement is therefore
    controlled exactly as on real hardware: only by choosing {e which core
    performs the access} — which is the lever the O2 scheduler pulls. *)

type t

val create : Config.t -> t
(** @raise Invalid_argument if the configuration does not {!Config.validate}. *)

val cfg : t -> Config.t
val topology : t -> Topology.t
val memory : t -> Memsys.t
val counters : t -> int -> Counters.t
val all_counters : t -> Counters.t array
val dram : t -> Dram.t

val read : t -> core:int -> now:int -> addr:int -> len:int -> int
(** [read t ~core ~now ~addr ~len] performs a load of [len] bytes starting
    at [addr] on [core] at virtual time [now] and returns its cost in
    cycles. Lines that miss everywhere are streamed from their home DRAM
    banks; misses to different banks overlap, so the DRAM component of the
    cost is the {e maximum} over banks rather than the sum. *)

val write : t -> core:int -> now:int -> addr:int -> len:int -> int
(** Like {!read} but obtains each line exclusively, invalidating every
    other cached copy (cache-coherence write). *)

(** {2 Inspection} *)

val l1 : t -> core:int -> Cache.t
val l2 : t -> core:int -> Cache.t
val l3 : t -> chip:int -> Cache.t
val all_caches : t -> Cache.t list

val presence : t -> Presence.t
(** The coherence directory (read-only for observers: the occupancy
    report counts hardware-replicated lines through it). *)

val line_resident : t -> core:int -> addr:int -> bool
(** Whether the line containing [addr] is in [core]'s L1 or L2. *)

(** {2 Cache observatory hooks}

    The access-stream sources, as bare ints so observers can index
    per-source arrays without a hot-path match: where each loaded line was
    found. *)

val src_l1 : int
val src_l2 : int
val src_l3 : int

val src_remote : int
(** Another core's or chip's cache, over the interconnect. *)

val src_dram : int

type observer = {
  on_access : now:int -> core:int -> line:int -> source:int -> unit;
      (** One line sourced by {!read} / {!write}: [now] is the access's
          start time, [source] one of the [src_*] constants above. *)
  on_fill : cache:Cache.t -> line:int -> victim:int -> unit;
      (** A line entered [cache] ([victim] evicted, or [-1]). *)
  on_remove : cache:Cache.t -> line:int -> unit;
      (** A present line left [cache] by invalidation, drop or clear. *)
}

val observe : t -> observer -> unit
(** Subscribe an observer for the machine's lifetime (first subscription
    installs the {!Cache.watcher} forwarders). Observers must not mutate
    simulator state; they run synchronously on the access path. With no
    observer every notification site is a single branch and allocates
    nothing (pinned by suite_hotpath). *)

val observed : t -> bool

val residency : t -> Cache.t -> (Memsys.extent * int) list
(** For one cache, how many lines of each registered object are resident
    (objects with zero lines omitted); drives the Figure 2 snapshot. *)

val object_residency : t -> Memsys.extent -> (Cache.t * int) list
(** Where one object's lines currently live. *)

val distinct_cached_lines : t -> int
(** Lines present in at least one cache — the "distinct data stored on
    chip" the paper argues O2 scheduling maximises. *)

val check_presence_consistency : t -> (unit, string) result
(** Verify the presence directory agrees exactly with cache contents
    (test-suite invariant). *)

(** {2 Test and experiment hooks}

    These manipulate simulator state directly, bypassing costs. They exist
    so the latency-validation experiment (paper Section 5 "Hardware") and
    the unit tests can place lines at a precise level before probing. *)

val place : t -> core:int -> addr:int -> l1:bool -> l2:bool -> l3:bool -> unit
val flush_line : t -> addr:int -> unit
val flush_all : t -> unit

val seconds_of_cycles : t -> int -> float
