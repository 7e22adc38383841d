(** A directory-lookup workload against the backend signature — the
    read-only side of the oracle cross-check, modelled on
    {!O2_workload.Dir_workload}: each directory is one backend object
    holding [entries] 32-byte entries, and a lookup is a linear scan
    charged per probed entry ([compare_cycles] each, as FAT's 8.3
    compare is). The charge is the simulator's price of the scan, made
    only when [B.priced]: on native it is not made and the scan itself
    is the cost. Read-only means results are interleaving-independent
    on any backend, so this exercises shipping and rebalancing without
    the single-writer sizing constraints Backend_kv needs.

    A lookup hands [with_op] a closed body defined once per instance,
    with the store, the directory and the key as its arguments, and the
    body scans with the one probe kernel, {!Int_scan.first}: a native
    lookup allocates nothing. *)

module Make (B : O2_runtime.Backend_intf.S) : sig
  type t

  val create :
    B.t ->
    name:string ->
    dirs:int ->
    entries_per_dir:int ->
    ?compare_cycles:int ->
    unit ->
    t
  (** Directory [d] holds entry keys [0 .. entries_per_dir - 1]; handle
      order = directory order. [compare_cycles] (default 2) is the
      simulated cycles per probed entry; the native backend ignores it.
      @raise Invalid_argument unless both counts are positive. *)

  val dir_obj : t -> int -> int

  val lookup : t -> dir:int -> key:int -> int
  (** The entry index for [key] in [dir], or [-1]. One backend op, which
      allocates nothing on native.
      @raise Invalid_argument ["Backend_dir.lookup: dir out of range"]
      unless [0 <= dir < dirs] (the [create] count), before the op is bracketed. *)
end
