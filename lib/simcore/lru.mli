(** A fixed-capacity LRU set of integer keys (cache lines), with O(1)
    membership, touch, insert and remove.

    This is the replacement machinery shared by every simulated cache
    level. Keys are non-negative ints (line numbers); the set never holds
    more than [capacity] keys — inserting into a full set evicts the least
    recently used key and returns it.

    Keys index a two-level map: a directory with one word per 64
    consecutive keys, up to the largest key ever inserted, and one
    64-word page for each 64-key range that holds a resident key. A
    key's page word is its recency-list node, so there are no per-slot
    arrays. Pages live in one arena per set, with room at first for
    [capacity / 64 + 1] pages (a full set of dense keys); when every
    page is in use the arena doubles, up to [capacity] pages. Pages that
    empty are kept for reuse. Memory is therefore the arena plus three
    words of headers and spare stack per page (its initial room, or at
    most twice the most pages ever live at once; never more than
    [capacity + 1] pages), plus one directory word per 64 keys below the
    largest key. A single huge key costs a huge directory. Once those
    high-water marks are reached no operation allocates. *)

type t

val create : cap:int -> t
(** [create ~cap] is an empty set holding at most [cap] keys.
    @raise Invalid_argument if [cap <= 0]. *)

val capacity : t -> int
val length : t -> int
val mem : t -> int -> bool

val touch : t -> int -> bool
(** [touch t k] moves [k] to most-recently-used position; returns whether
    [k] was present. *)

val touch_run : t -> int -> int -> int
(** [touch_run t first last] touches [first], [first + 1], ... up to
    [last] while each key is present, and returns how many it touched
    ([0] when [first] is absent or [first > last]). The list ends exactly
    as after touching them one by one, but each maximal segment of the
    run that is already in that order moves to the head with one splice.
    Allocation-free. *)

val add_evict : t -> int -> int
(** [add_evict t k] is {!add} without the option: returns the evicted key,
    or [-1] when nothing was evicted. Allocation-free except when the
    directory or the page pool grows.
    @raise Invalid_argument ["Lru.add_evict: negative key"] if [k < 0]
    (also from {!add}). Lookups of a negative key ({!mem}, {!touch},
    {!remove}) report it absent. *)

val insert_absent : t -> int -> int
(** [insert_absent t k] is {!add_evict} for a key the caller knows is
    absent (it has just probed and missed): no lookup first. Returns the
    evicted key or [-1]. The key must be absent: a present key would be
    linked twice.
    @raise Invalid_argument ["Lru.insert_absent: negative key"] if [k < 0]. *)

val remove : t -> int -> bool
(** [remove t k] deletes [k]; returns whether it was present. *)

val iter : (int -> unit) -> t -> unit
(** Iterate keys from most to least recently used. *)

(**/**)

val add : t -> int -> int option
(** For tests: the LRU model's insert; the cache uses the allocation-free
    path.
    [add t k] inserts [k] as most-recently-used. Returns [Some victim] if a
    least-recently-used key had to be evicted, [None] otherwise. Adding a
    present key just touches it (returns [None]). Allocating wrapper over
    {!add_evict}. *)

val lru_key : t -> int option
(** For tests: checks the next victim.
    The key that would be evicted next, if any. *)

val to_list : t -> int list
(** For tests: checks recency order against the model.
    Keys from most to least recently used. *)

val check_invariants : t -> (unit, string) result
(** For tests: the structural invariant the property tests check.
    Every listed node is present and maps
    back to its key, the forward and backward chains agree, no
    duplicates, length within capacity, each mapped page's live count
    equals its present nodes and its directory index points back at it,
    spare pages and their headers are all-zero, page 0 is never written,
    and every allocated page is either mapped or spare. Visits listed
    and spare pages only, never the whole directory. *)
