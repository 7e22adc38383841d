(** The in-memory FAT disk image: boot record, file-allocation table,
    cluster data region, and cluster-chain management.

    The image occupies one extent of simulated physical memory, so every
    byte of it has a stable simulated address ({!cluster_addr},
    {!fat_entry_addr}) that threads read through {!O2_runtime.Api} to incur
    cache costs, while the actual contents live in an OCaml [Bytes.t]
    manipulated for free by host code. Clusters are numbered from 2, as on
    real FAT volumes. *)

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
val image_bytes : t -> int
val buf : t -> Bytes.t
(** The raw image, for directory-entry code and for {!Fat_check}. *)

(** Clusters are numbered from [first_cluster_no] = 2. *)
val first_cluster_no : int

val cluster_off : t -> int -> int
(** Byte offset of a cluster's data within {!buf}. *)

val cluster_addr : t -> int -> int
(** Simulated address of a cluster's data. *)

val fat_entry_addr : t -> int -> int
(** Simulated address of a cluster's FAT cell (2 bytes). *)

val fat_get : t -> int -> int
val fat_set : t -> int -> int -> unit

val alloc_cluster : t -> prev:int option -> int option
(** Allocate one free cluster (marked end-of-chain); if [prev] is given,
    link it in after that cluster. [None] when the volume is full. *)

val alloc_chain : t -> int -> int option
(** Allocate a linked chain of [n] clusters; returns its head. Allocations
    are first-fit from a rotating hint, so fresh volumes get contiguous
    chains. [None] (and no allocation) if fewer than [n] clusters are
    free. *)

val free_chain : t -> int -> unit
(** Release a whole chain starting at its head. *)

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
