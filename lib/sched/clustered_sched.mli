(** Thread clustering (Tam et al., EuroSys 2007; paper Section 7):
    greedily group threads with similar working sets and place each group
    on one chip, so they share that chip's cache.

    Included as the comparator for experiment E12: on the directory-lookup
    workload every thread shares every directory, the similarity matrix is
    flat, and clustering degenerates to balanced round-robin — "thread
    clustering will not improve performance since all threads look up
    files in the same directories" (Section 2). *)

include Sched_intf.PLACEMENT

(**/**)

val clusters :
  threads:int ->
  groups:int ->
  similarity:(int -> int -> float) ->
  int array
(** For tests: the grouping step alone.
    The grouping step alone: greedy agglomerative assignment of [threads]
    into [groups] balanced clusters, highest-similarity pairs first.
    Returns each thread's cluster id. *)
