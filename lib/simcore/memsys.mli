(** The simulated physical address space and object registry.

    A bump allocator hands out address ranges; each allocation is a named
    extent so that cache lines can be mapped back to the object they belong
    to (used for the Figure 2 cache-contents snapshot and by CoreTime's
    object table, which identifies objects by address exactly as the
    paper's [ct_start(o)] does). *)

type obj_id = int

type extent = {
  id : obj_id;
  base : int;  (** First byte of the extent. *)
  size : int;  (** Bytes. *)
  name : string;
}

type t

val create : ?base:int -> line_bytes:int -> unit -> t
(** [base] defaults to [0x1000]; allocations are line-aligned. *)

val alloc : t -> name:string -> size:int -> extent
(** Allocate [size] bytes (rounded up to whole lines), line-aligned.
    @raise Invalid_argument if [size <= 0]. *)

val alloc_isolated : t -> name:string -> size:int -> extent
(** Like {!alloc} but padded so the extent shares no cache line with any
    other allocation (used for locks, to avoid false sharing). *)

val find : t -> obj_id -> extent option
(** O(1): ids are dense allocation indices, so this is an array read. *)

val object_at : t -> addr:int -> extent option
(** The extent containing [addr], if any. Binary search over flat
    base/size int arrays. *)

val object_id_at : t -> addr:int -> obj_id
(** Like {!object_at} but returns the extent's id, or [-1] when [addr] is
    unmapped. Allocation-free — the cache observatory attributes every
    observed fill and eviction through this. *)

(**/**)

val find_exn : t -> obj_id -> extent
(** For tests: checks the registry lookup. *)

val lines_of : t -> extent -> int
(** For tests: checks line rounding.
    Number of cache lines the extent spans. *)

val size : t -> int
(** For tests: checks how much was allocated.
    Number of extents allocated. *)
