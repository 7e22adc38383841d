(** The greedy first-fit "cache packing" algorithm (paper Section 4,
    "Algorithm"): assign each expensive-to-fetch object to a cache with
    free space, hottest objects first.

    Sorting dominates, so a full pack of [n] objects runs in Θ(n log n) —
    the complexity the paper claims; benchmark E5 measures it. The
    incremental variant {!place_one} is what [ct_start] promotion uses. *)

type item = { key : int; bytes : int; heat : float }
(** [key] is caller-chosen (an object base address); [heat] orders packing
    (e.g. miss EWMA x popularity). *)

val place_one :
  ?nonce:int ->
  placement:Policy.placement ->
  budget:int ->
  used:int array ->
  bytes:int ->
  unit ->
  int option
(** Choose a core with at least [bytes] free under [budget], following the
    placement policy: [First_fit] picks the lowest-numbered such core,
    [Least_loaded] the one with the most free space (lowest id breaks
    ties), [Random_fit] a pseudo-random one — a pure hash of the policy
    seed and [nonce] (default 0), so callers vary [nonce] (e.g. a
    promotion counter) to spread placements. Stateless by design: cells of
    a parallel experiment sweep must not share a PRNG. *)

val count_fits : budget:int -> used:int array -> bytes:int -> int
(** How many cores could take [bytes] under [budget] — the size of the
    candidate set {!place_one} chose from, reported in promotion
    provenance records. Allocation-free. *)

(**/**)

val pack :
  budget:int ->
  used:int array ->
  items:item list ->
  (item * int) list * item list
(** For tests: the paper's full Θ(n log n) pack, kept as the algorithm
    EXPERIMENTS.md E5 measures; its only caller is that test (CoreTime
    promotes with {!place_one}).
    [pack ~budget ~used ~items] greedily first-fits items in decreasing
    heat order into cores whose [used.(c)] leaves room under [budget].
    Returns (placed as [(item, core)] pairs, unplaced). [used] is not
    mutated. Deterministic: ties in heat keep input order. *)
