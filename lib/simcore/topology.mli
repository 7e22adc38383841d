(** Interconnect topology: chips arranged on a square(ish) grid, as in the
    paper's AMD system where four chips sit on a square interconnect.

    Chips are laid out row-major on a grid of width [ceil(sqrt chips)];
    distance between chips is the Manhattan hop count. *)

type t

val create : Config.t -> t

val hops : t -> int -> int -> int
(** [hops t a b] is the interconnect distance between chips [a] and [b];
    0 when [a = b]. *)

val hop_table : t -> int array
(** The hop counts as one row-major [chips * chips] array: [hops t a b]
    is element [a * chips + b]. Shared, not copied: callers must not
    write to it. *)

val remote_cache_latency : t -> from_chip:int -> to_chip:int -> int
(** Cycles to fetch a line from a cache on [to_chip] as seen from
    [from_chip]: [remote_same_chip] plus [remote_hop] per hop. *)

val dram_latency : t -> from_chip:int -> home_chip:int -> int
(** Cycles (latency component only) to load a line whose home DRAM bank is
    on [home_chip]: [dram_latency] plus [dram_hop] per hop. *)

val home_chip : t -> addr:int -> int
(** DRAM home bank for an address: pages are interleaved round-robin
    across chips. *)

val pp : Format.formatter -> t -> unit

(**/**)

val max_hops : t -> int
(** For tests: pins the topology's diameter.
    Largest hop count between any two chips (the "most distant" bank). *)
