(** A small in-simulated-memory hash table with per-bucket locks and
    CoreTime annotations: the kind of server-side object store the paper's
    introduction motivates (web-server working sets). Each bucket is a
    CoreTime object; each get/put is an operation.

    Data lives host-side (OCaml arrays); the simulated address range of
    each bucket is what operations read and write for cost. *)

type t

val create :
  Coretime.t ->
  ?pid:int ->
  name:string ->
  buckets:int ->
  slots_per_bucket:int ->
  unit ->
  t
(** Allocates [buckets] bucket extents and registers each as a CoreTime
    object owned by [pid]. *)

val buckets : t -> int

val put : t -> key:int -> value:int -> bool
(** Insert or update from inside a simulated thread (annotated write
    operation). Returns false when the bucket is full. *)

val get : t -> key:int -> int option
(** Annotated read operation. *)

val mem_bytes : t -> int
(** Total simulated bytes across buckets. *)

(**/**)

val bucket_of_key : t -> int -> int
(** For tests: checks the hash against {!O2_native.Backend_kv}. *)

val delete : t -> key:int -> bool
(** For tests: the kv model's delete. *)

val size : t -> int
(** For tests: the kv model's size.
    Live keys (host-side). *)
