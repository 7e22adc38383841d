(** Per-core event counters — the simulated equivalent of the AMD hardware
    performance counters CoreTime reads (Section 4, "Runtime monitoring").

    The machine updates the memory-system fields on every access; the
    runtime engine updates the busy / idle / spin / migration fields. The
    scheduler only ever reads them, exactly as real CoreTime reads MSRs. *)

type t = {
  mutable loads : int;  (** Line-granularity loads issued. *)
  mutable stores : int;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable l3_hits : int;  (** Loads served by the local chip's L3. *)
  mutable remote_hits : int;  (** Loads served by another cache. *)
  mutable dram_loads : int;  (** Lines loaded from DRAM. *)
  mutable invalidations_sent : int;
  mutable busy_cycles : int;  (** Cycles spent executing operations. *)
  mutable spin_cycles : int;  (** Cycles spent spinning on locks. *)
  mutable idle_cycles : int;  (** Cycles with nothing runnable. *)
  mutable migrations_in : int;
  mutable migrations_out : int;
  mutable ops_completed : int;  (** ct_start/ct_end pairs retired here. *)
}

val create : unit -> t
val create_array : int -> t array
val copy : t -> t

val diff : t -> since:t -> t
(** Field-wise subtraction: the events between two snapshots. *)

val copy_into : t -> t -> unit
(** [copy_into dst src] overwrites every field of [dst] with [src]'s —
    a {!copy} into preallocated storage, for snapshot scratch that must
    not allocate per period. *)

val diff_into : t -> t -> since:t -> unit
(** [diff_into dst t ~since] is {!diff} written into preallocated [dst]. *)

val add_into : t -> t -> unit
(** [add_into acc x] accumulates [x] into [acc]. *)

(**/**)

val misses : t -> int
(** For tests: checks the miss count CoreTime reads per op.
    Loads not served by the core's own L1/L2 or its chip's L3 — the
    "cache misses" CoreTime counts between a pair of annotations. *)
