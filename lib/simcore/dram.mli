(** Off-chip DRAM with one memory controller per chip and a finite
    bandwidth.

    Latency alone does not describe 2009-era Opterons: the directory-scan
    workload streams sequentially, so the effective per-line cost is set by
    controller bandwidth once many cores miss at once (the paper's "high
    off-chip memory bandwidth" remark, Section 6.1). Each controller is a
    simple queueing server: it is occupied for [dram_service] cycles per
    line it streams, so a burst of [n] lines from one bank completes at

      max(now, controller free time) + latency(hops) + n * dram_service

    and pushes the controller's free time forward by [n * dram_service].
    Concurrent demand from many cores therefore queues, which is what caps
    baseline throughput for DRAM-resident working sets. *)

type t

val create : Config.t -> Topology.t -> t

val fetch :
  t -> now:int -> from_chip:int -> home_chip:int -> lines:int -> int
(** [fetch t ~now ~from_chip ~home_chip ~lines] reserves controller time
    for [lines] consecutive lines on [home_chip]'s bank and returns the
    number of cycles after [now] at which the data has arrived at
    [from_chip]. [lines = 0] returns 0. *)

val controller_free_at : t -> chip:int -> int
(** When the chip's controller next becomes free (for tests and metrics). *)

val lines_served : t -> chip:int -> int
val total_lines_served : t -> int

val utilization : t -> now:int -> float
(** Fraction of elapsed time the controllers spent busy, averaged over
    controllers (0 when [now = 0]). *)

val reset : t -> unit
