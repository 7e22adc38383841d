(** The public file-system API: a formatted in-memory FAT volume with
    per-directory spin locks, as used by the paper's benchmark (Section 5:
    EFSL modified to an in-memory image, no buffer cache, per-directory
    locks, fast name-lookup inner loop).

    Directories are handles; each carries its own {!O2_runtime.Spinlock.t}.
    Structure-changing operations ([mkdir], [add_file], [remove]) are
    host-side setup operations; {!lookup} and {!lookup_locked} are the
    simulated hot path executed by workload threads. *)

type t

type dir = {
  dname : string;
  head : int;  (** First cluster of the entry chain. *)
  lock : O2_runtime.Spinlock.t;
}

val format :
  O2_simcore.Memsys.t ->
  label:string ->
  ?cluster_bytes:int ->
  clusters:int ->
  unit ->
  t
(** Make a fresh volume. [cluster_bytes] defaults to 4096. *)

val image : t -> Fat_image.t
val root : t -> dir

val mkdir : t -> string -> (dir, string) result
(** Create a directory under the root and return its handle. *)

val mkdir_in : t -> dir -> string -> (dir, string) result
(** Create a subdirectory of an existing directory; its handle is
    registered under its full path (e.g. ["/www/static"]). *)

val mkdir_path : t -> string -> (dir, string) result
(** Create every missing component of an absolute path
    (["/a/b/c"]) and return the final directory. *)

val find_dir : t -> string -> dir option
(** Handle of a directory previously created with {!mkdir} /
    {!mkdir_in}: accepts a root-level name (["www"]) or a full path
    (["/www/static"]). *)

val parent : t -> dir -> dir option
(** The directory containing [dir]; [None] for the root. *)

val resolve : t -> string -> [ `Dir of dir | `File of Fat_types.entry ] option
(** Host-side path resolution from the root; ["."] and [".."] components
    are supported. Cost-free. *)

val resolve_sim :
  t -> ?locked:bool -> string -> [ `Dir of dir | `File of Fat_types.entry ] option
(** Simulated path resolution: scans each component's directory from
    inside a thread, optionally taking each directory's lock. *)

val dirs : t -> dir list
(** All directories created with {!mkdir}, in creation order. *)

val add_file : t -> dir -> name:string -> size:int -> (unit, string) result
(** Create a file entry (no data clusters are allocated: the benchmark
    only resolves names). *)

val populate : t -> dir array -> names83:string array -> (unit, string) result
(** Add one empty archive file per 11-byte 8.3 name (see {!Fat_name.to_83})
    to every directory: the benchmark's 1000 entries per directory. The
    names are encoded once per call into one run of
    [Array.length names83] x 32 bytes, which is copied into each
    directory's cluster chain ({!Fat_dir.append_bulk}). Directories are
    filled completely one after another in array order, so array order is
    cluster-allocation order. The run lives only inside the call: nothing
    is cached across calls or volumes. Names are not checked for
    duplicates. [Error "volume full"] when the clusters run out; the
    directories filled so far keep their entries.
    @raise Invalid_argument when a name is not 11 bytes. *)

val lookup : t -> dir -> string -> Fat_types.entry option
(** Simulated name resolution (call inside a thread; caller holds the
    directory lock if racing with other threads). *)

val lookup_locked : t -> dir -> string -> Fat_types.entry option
(** {!lookup} bracketed by the directory's spin lock — the paper's
    benchmark operation. *)

val lookup_host : t -> dir -> string -> Fat_types.entry option
(** Cost-free host-side resolution, for tests and setup. *)

val lookup_83 : t -> dir -> string -> Fat_types.entry option
(** {!lookup} taking an already-encoded 11-byte 8.3 name (hot loops
    precompute these). *)

val lookup_locked_83 : t -> dir -> string -> Fat_types.entry option

val readdir : t -> dir -> Fat_types.entry list
val remove : t -> dir -> string -> bool

val dir_base_addr : t -> dir -> int
(** Simulated address of the directory's first cluster: the object
    identity passed to [ct_start], as in the paper's Figure 3. *)

val dir_bytes : t -> dir -> int
(** Bytes of cluster data the directory occupies (its object size). *)

val dir_clusters : t -> dir -> int list

val compare_cycles : t -> int
(** Per-entry name-compare cost charged by {!lookup} (default 2). *)

val set_compare_cycles : t -> int -> unit
