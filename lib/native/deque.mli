(** Chase–Lev work-stealing deque: single owner, many thieves.

    Each pool worker owns one deque: only the owner may {!push} and
    {!pop} (LIFO, at the bottom), while any other domain may {!steal}
    (FIFO, at the top). The implementation is the classic Chase–Lev
    circular-buffer algorithm on OCaml [Atomic]s, whose sequentially
    consistent semantics provide the store-load ordering the original
    algorithm obtains from explicit fences.

    Empty and lost-race results are reported by returning the [dummy]
    element the deque was created with (compare with [==]), so the hot
    paths allocate nothing — no options, no exceptions. The buffer grows
    geometrically when the owner outruns the thieves; grown rings are
    published atomically, so a thief holding a stale ring still reads a
    valid element (the element is validated by its CAS on [top]). *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [capacity] (default 64) is rounded up to a power of two. [dummy]
    must never be pushed; it is the sentinel returned for "nothing".
    @raise Invalid_argument if [capacity < 1]. *)

val push : 'a t -> 'a -> unit
(** Owner only: add at the bottom. Grows the ring when full (the only
    allocating path). *)

val pop : 'a t -> 'a
(** Owner only: take the most recently pushed element, or [dummy] when
    the deque is empty (or a thief won the race for the last element). *)

val steal : 'a t -> 'a
(** Any domain: take the oldest element. Returns [dummy] when the deque
    is empty {e or} when it lost a race with the owner or another thief
    — callers treat both as a miss and move to the next victim. *)

(**/**)

val length : 'a t -> int
(** For tests: the deque model checks size after each step.
    Racy snapshot ([bottom - top], clamped to 0). Exact only for the
    owner while no thief is active. *)

val is_empty : 'a t -> bool
(** For tests: the deque model checks emptiness.
    [length t = 0]; the same caveat applies. *)
