(** Directory-entry operations over a cluster chain: the linear 32-byte
    entry scan at the heart of the paper's benchmark.

    Host-side functions ({!find}, {!add}, {!list}, ...) manipulate the
    image directly and cost nothing; {!lookup_sim} performs the same scan
    from inside a simulated thread, charging memory reads for every FAT
    link followed and every entry examined plus a per-entry compare cost —
    the "higher-performance inner loop for file name lookup" of Section 5. *)

val find : Fat_image.t -> head:int -> name83:string -> Fat_types.entry option
(** Host-side linear scan; stops at the end-of-directory marker. *)

val add : Fat_image.t -> head:int -> Fat_types.entry -> (unit, string) result
(** Write an entry into the first free slot (deleted or end), extending
    the chain with a fresh cluster when full. One word-wise walk over the
    chain finds both a duplicate name and the first free slot. Fails when
    the volume is full or the entry name duplicates an existing one.
    @raise Invalid_argument when the entry name is not 11 bytes. *)

type run
(** Encoded directory entries ready to append to many directories: the
    bytes, and the same bytes cut into cluster-sized blocks (the last one
    zero-padded) that fresh clusters can share. *)

val run_of_entries : Fat_image.t -> Bytes.t -> run
(** [run_of_entries img bytes] cuts [bytes], whole 32-byte entries (see
    {!Fat_types.encode_entry}), into [img]'s cluster size. [bytes] must
    not change afterwards.
    @raise Invalid_argument when [bytes] is not a whole number of
    entries. *)

val append_bulk : Fat_image.t -> head:int -> run -> (unit, string) result
(** [append_bulk img ~head run] appends the entries of [run] after the
    directory's end marker, in order and without duplicate checks. The
    rest of the last cluster is filled with one blit, then fresh clusters
    are linked after it ({!Fat_image.alloc_cluster} [~prev]). A cluster
    filled from slot 0 at a cluster-aligned point of the run shares the
    run's block for that slice ({!Fat_image.share_block}) instead of
    copying it: O(chain + clusters) pointer stores where {!add} is
    O(chain) per entry. The caller guarantees the names are fresh
    (directory population). [Error "volume full"] leaves the entries
    copied so far in place, the chain well formed.
    @raise Invalid_argument when a block of [run] is to be shared and
    [run] was cut for another cluster size. *)

val remove : Fat_image.t -> head:int -> name83:string -> bool
(** Mark an entry deleted; false when absent. *)

val list : Fat_image.t -> head:int -> Fat_types.entry list
(** Live entries, in directory order. *)

val lookup_sim :
  Fat_image.t ->
  head:int ->
  name83:string ->
  compare_cycles:int ->
  Fat_types.entry option
(** The simulated scan: must run inside an {!O2_runtime.Engine.spawn}ed
    thread. Reads exactly the bytes a real scan would touch before
    matching (or before hitting the end marker) and charges
    [compare_cycles] of compute per entry examined. Besides the effects
    it performs, it allocates only the entry it returns. *)

(**/**)

val entries_per_cluster : Fat_image.t -> int
(** For tests: sizes the scan-kernel property's clusters. *)

val scan_cluster : Fat_image.t -> int -> name83:string -> int
(** For tests: the word-wise scan kernel, checked against a byte-wise scan.
    [scan_cluster img cluster ~name83] scans one cluster's slots in
    order: the index of the first live slot named [name83] (>= 0); [-1]
    when the cluster ends with no match; [-(2 + slot)] when the
    end-of-directory marker sits at [slot]. Deleted slots never match,
    and neither does a [name83] that is not exactly 11 bytes. The name is
    compared a 32-bit word at a time, in place, in the cluster's block
    ({!Fat_image.cluster_block}); allocation-free (the kernel under
    {!find}, {!remove} and {!lookup_sim}). *)

val count : Fat_image.t -> head:int -> int
(** For tests: counts live entries to check the directory model. *)
