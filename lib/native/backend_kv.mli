(** The kv_store bucket logic, written once against the backend
    signature — the workload program both sides of the oracle
    cross-check execute.

    This is the same open-addressed store as {!O2_workload.Kv_store}
    (same multiplicative hash, same linear-probe cost model, same
    full-bucket and delete-swap-last behavior) with two deliberate
    differences that keep one program portable across backends:

    - No bucket spinlocks: the logical read-modify-write on a bucket is
      a straight OCaml section with no backend call inside, so it is
      atomic on both backends — the simulator's engine only switches
      threads at effect points, and the native backend runs every write
      to a bucket on its single home domain, never alongside a read.
      [get] is read-only ([with_op] without [~write]), so on a bucket
      never written it runs on the client's own domain. Probe/compute
      costs are charged {e after} the logical section for exactly this
      reason. They are the simulator's price of the probe (a touch of
      the probed slots and 2 cycles per slot), made only when
      [B.priced]: on native neither call is made and the probe itself
      is the cost.
    - Results are sentinel ints, not options ([get] returns [-1] for
      absent), and each op hands [with_op] a closed body defined once
      per instance, with the store, the bucket and the key (or the key
      and the value) as its arguments. So a native op allocates
      nothing: no closure, no option. The body probes the bucket with
      the one probe kernel, {!Int_scan.first}, through
      {!Pad_row.find_in}. *)

module Make (B : O2_runtime.Backend_intf.S) : sig
  type t

  val create :
    B.t -> name:string -> buckets:int -> slots_per_bucket:int -> unit -> t
  (** Registers one backend object per bucket (handle order = bucket
      order, so per-object counters line up across backends).
      @raise Invalid_argument unless both sizes are positive. *)

  val bucket_of_key : t -> int -> int
  val bucket_obj : t -> int -> int
  (** The backend object handle of bucket [i]. *)

  val get : t -> key:int -> int
  (** The value bound to [key], or [-1] when absent. Call from a client
      body; stores only nonnegative values if you use the sentinel. *)

  val put : t -> key:int -> value:int -> bool
  (** [false] iff the bucket was full and the key absent. *)

  val delete : t -> key:int -> bool
  val size : t -> int
  (** Total keys stored; meaningful at quiescence only. *)

  (**/**)

  val guards_clear : t -> bool
  (** For tests: every bucket row's guard words are still 0
      ({!Pad_row.guards_clear}), at quiescence only. *)
end
