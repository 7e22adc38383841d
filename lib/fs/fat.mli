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

val populate : t -> dir array -> names83:string array -> (unit, string) result
(** Add one empty archive file per 11-byte 8.3 name (see {!Fat_name.to_83})
    to every directory: the benchmark's 1000 entries per directory. The
    names are encoded once per call into one run of
    [Array.length names83] x 32 bytes, cut into cluster-sized blocks, and
    appended to each directory's cluster chain ({!Fat_dir.append_bulk}):
    a fresh cluster filled from its first slot shares the matching block
    instead of copying it. Directories are filled completely one after
    another in array order, so array order is cluster-allocation order.
    Nothing is cached across calls or volumes: the blocks belong to this
    volume's image once shared. Names are not checked for duplicates.
    [Error "volume full"] when the clusters run out; the directories
    filled so far keep their entries.
    @raise Invalid_argument when a name is not 11 bytes. *)

val lookup : t -> dir -> string -> Fat_types.entry option
(** Simulated name resolution (call inside a thread; caller holds the
    directory lock if racing with other threads). *)

val lookup_83 : t -> dir -> string -> Fat_types.entry option
(** {!lookup} taking an already-encoded 11-byte 8.3 name (hot loops
    precompute these). *)

val lookup_locked_83 : t -> dir -> string -> Fat_types.entry option
(** {!lookup_83} bracketed by the directory's spin lock — the paper's
    benchmark operation. *)

val dir_base_addr : t -> dir -> int
(** Simulated address of the directory's first cluster: the object
    identity passed to [ct_start], as in the paper's Figure 3. *)

val dir_bytes : t -> dir -> int
(** Bytes of cluster data the directory occupies (its object size). *)

val dir_clusters : t -> dir -> int list

val set_compare_cycles : t -> int -> unit

(**/**)

val mkdir_in : t -> dir -> string -> (dir, string) result
(** For tests: the FAT suite builds nested trees.
    Create a subdirectory of an existing directory; its handle is
    registered under its full path (e.g. ["/www/static"]). *)

val mkdir_path : t -> string -> (dir, string) result
(** For tests: the FAT suite builds nested trees.
    Create every missing component of an absolute path
    (["/a/b/c"]) and return the final directory. *)

val find_dir : t -> string -> dir option
(** For tests: checks that nested directories are registered.
    Handle of a directory previously created with {!mkdir} /
    {!mkdir_in}: accepts a root-level name (["www"]) or a full path
    (["/www/static"]). *)

val parent : t -> dir -> dir option
(** For tests: checks [..] handling of nested trees.
    The directory containing [dir]; [None] for the root. *)

val resolve : t -> string -> [ `Dir of dir | `File of Fat_types.entry ] option
(** For tests: the FAT suite's host-side path oracle.
    Host-side path resolution from the root; ["."] and [".."] components
    are supported. Cost-free. *)

val add_file : t -> dir -> name:string -> size:int -> (unit, string) result
(** For tests: the model-based directory tests add entries.
    Create a file entry (no data clusters are allocated: the benchmark
    only resolves names). *)

val lookup_host : t -> dir -> string -> Fat_types.entry option
(** For tests: the cost-free oracle the simulated lookups are checked
    against.
    Cost-free host-side resolution. *)

val readdir : t -> dir -> Fat_types.entry list
(** For tests: the model-based directory tests list entries. *)

val remove : t -> dir -> string -> bool
(** For tests: the model-based directory tests remove entries. *)

val compare_cycles : t -> int
(** For tests: checks the compare cost setting.
    Per-entry name-compare cost charged by {!lookup} (default 2). *)
