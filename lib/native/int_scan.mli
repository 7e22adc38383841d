(** The probe kernel of the native programs: a linear search over a
    range of an [int array].

    Both lookups an op body runs are this one loop: {!Backend_dir} scans
    a directory's entries with it, and {!Backend_kv} scans a bucket's
    live key words through {!Pad_row.find_in}. *)

val first : int array -> lo:int -> hi:int -> int -> int
(** [first a ~lo ~hi key] is the least index [i] with [lo <= i < hi] and
    [a.(i) = key], or [-1] if there is none. The range is checked once,
    on entry, and the C kernel then reads only [[lo, hi)]. On x86-64
    with AVX2 it compares whole 8-word blocks, up to 64 words per mask
    word with no branch per block, and finishes the last [0]–[7] words
    one at a time; every other host runs that scalar loop over the whole
    range. Allocates nothing.
    @raise Invalid_argument ["Int_scan.first: range outside the array"]
    unless [0 <= lo <= hi <= Array.length a]; nothing is read then. *)

(**/**)

val first_scalar : int array -> lo:int -> hi:int -> int -> int
(** For tests: {!first} through the kernel's scalar loop over the whole
    range, the path a host without AVX2 runs, whatever this host has. *)
