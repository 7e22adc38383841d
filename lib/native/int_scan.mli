(** The probe kernel of the native programs: a linear search over a
    range of an [int array].

    Both lookups an op body runs are this one loop: {!Backend_dir} scans
    a directory's entries with it, and {!Backend_kv} scans a bucket's
    live key words through {!Pad_row.find_in}. *)

val first : int array -> lo:int -> hi:int -> int -> int
(** [first a ~lo ~hi key] is the least index [i] with [lo <= i < hi] and
    [a.(i) = key], or [-1] if there is none. The range is checked once,
    on entry; the loop then tests four words per step with unchecked
    loads and finishes the last [0]–[3] words one at a time. Allocates
    nothing.
    @raise Invalid_argument ["Int_scan.first: range outside the array"]
    unless [0 <= lo <= hi <= Array.length a]; nothing is read then. *)
