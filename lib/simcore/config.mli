(** Static description of a simulated multicore machine.

    All latencies are in CPU cycles; all sizes in bytes unless the field name
    says otherwise. The default configuration, {!amd16}, reproduces the
    16-core, 4-chip AMD Opteron system of the paper's Section 5: per-core L1
    and L2 caches, a per-chip shared L3, a square interconnect between the
    four chips, and one DRAM controller per chip. *)

type t = {
  name : string;  (** Human-readable machine name. *)
  chips : int;  (** Number of chips (sockets). *)
  cores_per_chip : int;  (** Cores on each chip. *)
  ghz : float;  (** Core clock; converts cycles to seconds. *)
  line_bytes : int;  (** Cache-line size. *)
  page_bytes : int;  (** DRAM interleave granularity across controllers. *)
  l1_bytes : int;  (** Per-core L1 data-cache capacity. *)
  l1_latency : int;  (** L1 hit latency (paper: 3 cycles). *)
  l2_bytes : int;  (** Per-core L2 capacity (paper: 512 KB). *)
  l2_latency : int;  (** L2 hit latency (paper: 14 cycles). *)
  l3_bytes : int;  (** Per-chip shared L3 capacity (paper: 2 MB). *)
  l3_latency : int;  (** L3 hit latency (paper: 75 cycles). *)
  remote_same_chip : int;
      (** Fetch from the cache of another core on the same chip
          (paper: 127 cycles). *)
  remote_hop : int;
      (** Extra cycles per interconnect hop for a remote-cache fetch. *)
  dram_latency : int;  (** Load from the local chip's DRAM bank. *)
  dram_hop : int;
      (** Extra cycles per hop to a remote DRAM bank (paper: the most
          distant bank costs 336 cycles in total). *)
  dram_service : int;
      (** Bandwidth model: cycles a DRAM controller is occupied per line it
          streams. Lower = more off-chip bandwidth. *)
  invalidate_cycles : int;
      (** Cost charged to a writer that must invalidate remote copies. *)
  migration_save : int;  (** Cycles to save a thread context (source core). *)
  migration_xfer : int;  (** Cycles for the context to cross the interconnect. *)
  migration_restore : int;  (** Cycles to load the context (destination). *)
  poll_interval : int;
      (** Destination cores notice pending migrations only when they poll;
          on average half this interval is added to a migration. *)
  amsg_send : int;
      (** Active-message support (Section 6.1): cycles the sender spends
          launching an operation descriptor instead of a whole context. *)
  amsg_wire : int;  (** Interconnect cycles for the descriptor. *)
  amsg_dispatch : int;
      (** Receiver-side cycles to start executing the shipped operation
          (no polling: active messages interrupt). *)
}

val cores : t -> int
(** Total core count ([chips * cores_per_chip]). *)

val chip_of_core : t -> int -> int
(** [chip_of_core cfg core] is the chip that [core] belongs to. *)

val migration_cycles : t -> int
(** Sum of the save / transfer / restore components plus the mean polling
    delay: the end-to-end cost of one thread migration (paper: 2000). *)

val amsg_cycles : t -> int
(** End-to-end cost of shipping one operation by active message. *)

val on_chip_capacity : t -> int
(** Aggregate L2 + L3 bytes across the machine (paper: 16 MB); the point
    past which even a perfectly packed working set spills to DRAM. *)

val per_core_budget : t -> int
(** Cache bytes the packing algorithm may assign to one core: its private
    L2 plus an even share of its chip's L3. *)

val amd16 : t
(** The paper's testbed: 4 chips x 4 cores at 2 GHz, 64 KB L1 / 512 KB L2
    per core, 2 MB L3 per chip, latencies 3/14/75, remote fetches from 127
    cycles (same-chip cache) to 336 cycles (most distant DRAM bank), and a
    2000-cycle thread migration. *)

val small4 : t
(** A 1-chip, 4-core machine with tiny caches: used by unit tests and by
    the Figure 2 snapshot so cache contents stay human-readable. *)

val future64 : t
(** A hypothetical future multicore (Section 6.1): 8 chips x 8 cores,
    larger per-core caches, scarcer off-chip bandwidth, cheaper migration
    (hardware active messages). *)

val validate : t -> (unit, string) result
(** Check internal consistency (positive sizes, line divides capacities,
    at least one core...). All built-in configurations validate. *)

val pp : Format.formatter -> t -> unit
