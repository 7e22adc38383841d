(** Coherence presence directory: for every cached line, which cores hold a
    copy in their private hierarchy (L1 or L2) and which chips hold one in
    their shared L3.

    This mirrors the broadcast/snoop information the AMD interconnect
    carries: a read miss consults it to find the nearest copy; a write
    consults it to invalidate every other copy. It is a pure bookkeeping
    structure — {!Machine} is responsible for keeping it consistent with
    the per-cache LRU contents (a property the test suite checks).

    Storage is flat struct-of-arrays: the line number indexes directly
    into per-line mask arrays (no hashing, no per-line records). Core
    masks are 32 bits per word so topologies wider than an OCaml int
    (64–256 cores) work; chip masks are one int per line (<= 62 chips,
    validated by {!Machine}). Lookups never allocate; updates allocate
    only when the arrays double to cover a new highest line. *)

type t

val create : cores:int -> t
(** [create ~cores] — [cores] fixes the core-mask width (number of
    32-bit words per line). Raises [Invalid_argument] if [cores <= 0]. *)

val words : t -> int
(** Number of 32-bit core-mask words per line. *)

val set_core : t -> line:int -> core:int -> unit
(** Record that [core]'s private hierarchy now holds [line]. *)

val clear_core : t -> line:int -> core:int -> unit

val set_chip : t -> line:int -> chip:int -> unit
(** Record that [chip]'s L3 now holds [line]. *)

val clear_chip : t -> line:int -> chip:int -> unit

val core_word : t -> line:int -> w:int -> int
(** [core_word t ~line ~w] is the [w]th 32-bit word of [line]'s core
    mask: core [c] is bit [c land 31] of word [c lsr 5]. *)

val chip_holders : t -> line:int -> int
(** Bitmask of chips whose L3 holds [line]. *)

type classes
(** Per source chip, the core masks grouped by hop distance, nearest
    class first. Built once per machine by {!hop_classes}. *)

val hop_classes :
  t -> chip_of:int array -> hops:int array -> nchips:int -> classes
(** [chip_of] maps core to chip and [hops] is the flat row-major
    [nchips * nchips] hop matrix. The masks are as wide as [t]'s. *)

val nearest_core :
  t -> classes -> line:int -> exclude_core:int -> from_chip:int -> int
(** The holder core (other than [exclude_core]) whose chip is fewest hops
    from [from_chip]; ties broken by lowest core id. [-1] when no other
    core holds the line — a bare int rather than an option, because this
    runs on the miss path of every simulated load and must not allocate.
    The answer is the lowest set bit of the holder mask and the first
    non-empty distance class: a few loads and ands per class. *)

val nearest_chip_holder :
  t -> line:int -> exclude_chip:int -> from_chip:int ->
  hops:int array -> nchips:int -> int
(** Nearest chip (other than [exclude_chip]) whose L3 holds [line]; [-1]
    when none. *)

val tracked_lines : t -> int
(** Number of lines with at least one holder (for tests and reports).
    Counted on demand over every line the arrays cover, so updates keep
    no count. *)

val bit_index : int -> int -> int
(** [bit_index b i] is the index of the single set bit in [b], plus [i]
    ([b] must be a power of two — typically [m land -m]). Constant
    time: one multiply and one table load. *)

val replicated_lines : t -> int
(** Lines held in the private hierarchy of two or more cores — data the
    hardware is replicating rather than the scheduler partitioning (the
    cache observatory reports this alongside occupancy). *)

val iter_lines : (int -> unit) -> t -> unit
(** Iterate over lines with at least one holder, in ascending line order. *)

(**/**)

val cached_anywhere : t -> line:int -> bool
(** For tests: checks the directory against the caches. *)
