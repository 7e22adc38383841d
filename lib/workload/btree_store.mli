(** A B+-tree index over simulated memory: the other server-side data
    structure the paper's introduction gestures at (index lookups whose
    working set dwarfs a single cache).

    Every node is one simulated-memory extent registered as a CoreTime
    object; lookups descend from the root reading each node's search path
    and bracket the leaf access with [ct_start]/[ct_end]. Internal nodes
    are read-only after {!bulk_load} and very hot, so they exercise the
    Section 6.2 replicate-vs-schedule tradeoff: partitioning the root
    serialises every lookup through one core, replication lets each core
    keep its own copy. *)

type t

val create :
  Coretime.t -> ?pid:int -> name:string -> fanout:int -> unit -> t
(** [fanout] keys per node (node size = 16 bytes per slot).
    @raise Invalid_argument if [fanout < 4]. *)

val bulk_load : t -> keys:int array -> value_of:(int -> int) -> unit
(** Build the tree host-side from sorted distinct keys (leaves ~70% full,
    standard bulk load). Must be called once, before any operation.
    @raise Invalid_argument if keys are unsorted/duplicated or the tree
    was already loaded. *)

val lookup : t -> int -> int option
(** Simulated point lookup (call inside a thread): reads each internal
    node's binary-search path, then performs an annotated leaf search. *)

val height : t -> int
val node_count : t -> int
val leaf_count : t -> int
val key_count : t -> int
val mem_bytes : t -> int

(**/**)

val check : t -> (unit, string) result
(** For tests: the B-tree's structural invariant.
    Structural invariants: keys sorted within nodes, separators bound the
    subtrees, all leaves at the same depth, counts consistent. *)
