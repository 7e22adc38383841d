(** Directory-entry operations over a cluster chain: the linear 32-byte
    entry scan at the heart of the paper's benchmark.

    Host-side functions ({!find}, {!add}, {!list}, ...) manipulate the
    image directly and cost nothing; {!lookup_sim} performs the same scan
    from inside a simulated thread, charging memory reads for every FAT
    link followed and every entry examined plus a per-entry compare cost —
    the "higher-performance inner loop for file name lookup" of Section 5. *)

val entries_per_cluster : Fat_image.t -> int

val find : Fat_image.t -> head:int -> name83:string -> Fat_types.entry option
(** Host-side linear scan; stops at the end-of-directory marker. *)

val add : Fat_image.t -> head:int -> Fat_types.entry -> (unit, string) result
(** Write an entry into the first free slot (deleted or end), extending
    the chain with a fresh cluster when full. Fails when the volume is
    full or the entry name duplicates an existing one. *)

val append_bulk : Fat_image.t -> head:int -> Bytes.t -> (unit, string) result
(** [append_bulk img ~head run] appends the entries already encoded in
    [run] (whole 32-byte entries, see {!Fat_types.encode_entry}) after the
    directory's end marker, in order and without duplicate checks. The
    rest of the last cluster is filled with one blit, then fresh clusters
    are linked after it ({!Fat_image.alloc_cluster} [~prev]) and zeroed,
    one blit each: O(chain + entries) where {!add} is O(chain) per entry.
    The caller guarantees the names are fresh (directory population).
    [Error "volume full"] leaves the entries copied so far in place, the
    chain well formed.
    @raise Invalid_argument when [run] is not a whole number of entries. *)

val remove : Fat_image.t -> head:int -> name83:string -> bool
(** Mark an entry deleted; false when absent. *)

val list : Fat_image.t -> head:int -> Fat_types.entry list
(** Live entries, in directory order. *)

val count : Fat_image.t -> head:int -> int

val lookup_sim :
  Fat_image.t ->
  head:int ->
  name83:string ->
  compare_cycles:int ->
  Fat_types.entry option
(** The simulated scan: must run inside an {!O2_runtime.Engine.spawn}ed
    thread. Reads exactly the bytes a real scan would touch before
    matching (or before hitting the end marker) and charges
    [compare_cycles] of compute per entry examined. *)
