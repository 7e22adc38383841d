(** Int rows that share no cache line with any other block.

    A row's live words sit between two 16-word guards (two 64-byte
    lines) that nothing reads or writes, so a word one domain writes is
    never on a line — or on the adjacent line the hardware prefetcher
    pairs with it — that another domain touches. Every per-domain
    counter and every bucket that the native op path writes lives in one
    of these; see DESIGN.md, "Home-isolated layout".

    Indices are live-word indices. Accessors check them against the
    whole block only, so an index just past either end of the live range
    lands in a guard: {!guards_clear} is how tests catch that.

    The representation is exposed read-only so that an array of rows is
    known to hold no floats: indexing one is then a plain load, with no
    float-array test on the op path. Only this module writes a row. *)

type t = private int array

val make : int -> t
(** [make n]: a row of [n] live words, all 0. *)

val get : t -> int -> int
val set : t -> int -> int -> unit

val incr : t -> int -> unit
(** [incr r i] adds one to live word [i]. *)

val find_in : t -> lo:int -> len:int -> int -> int
(** [find_in r ~lo ~len key]: the least [k] in [[0, len)] with live word
    [lo + k] equal to [key], or [-1]. One {!Int_scan.first} over the
    block, so it allocates nothing and tests four words per loop step.
    @raise Invalid_argument from {!Int_scan.first} if the range leaves
    the block. *)

val grow : t -> int -> t
(** [grow r n]: a fresh row of [n >= length r] live words, the first
    [length r] copied from [r] and the rest 0.
    @raise Invalid_argument if [n < length r]. *)

val guards_clear : t -> bool
(** Every guard word is still 0. *)

(**/**)

val length : t -> int
(** For tests: checks the live-word count of a row.
    Live words. *)
