(** The in-memory FAT disk image: boot record, file-allocation table,
    cluster data region, and cluster-chain management.

    The image occupies one extent of simulated physical memory, so every
    byte of it has a stable simulated address ({!cluster_addr},
    {!fat_entry_addr}) that threads read through {!O2_runtime.Api} to incur
    cache costs, while the actual contents live on the host and are
    manipulated for free by host code. Clusters are numbered from 2, as on
    real FAT volumes.

    On the host the image is copy-on-write: a small {!header} (the boot
    record and the FAT) plus one data block per cluster. A block may be
    shared by several clusters. Every cluster starts out on one shared
    zero block; {!share_block} points a zero cluster at a block whose
    content it takes whole, and {!writable_block} gives a cluster a
    private copy before its first write. The host layout has no bearing
    on the simulated addresses, which are those of the flat image that
    {!to_bytes} materializes. *)

type t

val create :
  O2_simcore.Memsys.t ->
  label:string ->
  cluster_bytes:int ->
  total_clusters:int ->
  t
(** Format an image: writes the boot record and an all-free FAT.
    @raise Invalid_argument for non-positive or non-sector-multiple
    geometry. *)

val cluster_bytes : t -> int
val total_clusters : t -> int
val free_clusters : t -> int

val header : t -> Bytes.t
(** Image bytes [0, cluster 2): the boot record and the FAT. Read it
    only; {!fat_set} writes the FAT. *)

(** Clusters are numbered from [first_cluster_no] = 2. *)
val first_cluster_no : int

val cluster_addr : t -> int -> int
(** Simulated address of a cluster's data. *)

val cluster_block : t -> int -> Bytes.t
(** A cluster's data, [cluster_bytes] long, at offsets relative to the
    cluster. The block may be shared with other clusters: read it only.
    Allocation-free.
    @raise Invalid_argument on an invalid cluster. *)

val writable_block : t -> int -> Bytes.t
(** The cluster's data for writing: on the first write after the
    cluster was allocated or shared, the block is copied and the copy
    becomes the cluster's own, so no other cluster sees the write.
    @raise Invalid_argument on an invalid cluster. *)

val share_block : t -> int -> Bytes.t -> bool
(** [share_block img c block] makes [block] cluster [c]'s content
    without copying it, when [c] still reads as the shared zero block,
    and returns [true]; otherwise it changes nothing and returns [false].
    The caller must never write [block] afterwards; a write to [c] goes
    through {!writable_block}, which copies it.
    @raise Invalid_argument on an invalid cluster or when [block] is not
    [cluster_bytes] long. *)

val fat_entry_addr : t -> int -> int
(** Simulated address of a cluster's FAT cell (2 bytes). *)

val fat_get : t -> int -> int

val alloc_cluster : t -> prev:int option -> int option
(** Allocate one free cluster (marked end-of-chain) whose data reads as
    zero; if [prev] is given, link it in after that cluster. [None] when
    the volume is full. *)

val free_chain : t -> int -> unit
(** Release a whole chain starting at its head. The clusters keep their
    bytes until they are allocated again. *)

val chain : t -> int -> int list
(** Follow a chain from its head.
    @raise Failure on a cycle or an out-of-range link (corrupt image). *)

val next_cluster : t -> int -> int
(** The cluster following [c] in its chain, or [-1] at end-of-chain.
    Allocation-free single step (the lookup hot path walks chains with
    this instead of materialising {!chain}).
    @raise Failure on an out-of-range link (corrupt image). *)

val valid_cluster : t -> int -> bool
val magic : string

(**/**)

val to_bytes : t -> Bytes.t
(** For tests: the flat image the independent FAT parser reads.
    The whole image as one fresh flat buffer, [image_bytes] long. *)

val fat_set : t -> int -> int -> unit
(** For tests: corrupts a FAT cell so fsck has something to find. *)

val alloc_chain : t -> int -> int option
(** For tests: checks first-fit chain allocation.
    Allocate a linked chain of [n] clusters; returns its head. Allocations
    are first-fit from a rotating hint, so fresh volumes get contiguous
    chains. [None] (and no allocation) if fewer than [n] clusters are
    free. *)
