(** A minimum priority queue of timestamped events.

    Ties on time are broken by insertion order (FIFO), which makes the
    whole simulation deterministic: two events scheduled for the same cycle
    always fire in the order they were scheduled.

    The heap stores times and sequence numbers in unboxed int arrays, so
    {!push}, {!min_time} and {!pop_min} allocate nothing (outside of
    amortised array growth) — this queue sits on the engine's innermost
    loop. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool

val push : 'a t -> time:int -> 'a -> unit
(** @raise Invalid_argument if [time < 0]. *)

val min_time : 'a t -> int
(** Time of the earliest event, without allocating.
    @raise Invalid_argument on an empty queue. *)

val pop_min : 'a t -> 'a
(** Remove and return the earliest event's payload, without allocating.
    @raise Invalid_argument on an empty queue. *)

(**/**)

val length : 'a t -> int
(** For tests: the heap model checks size. *)

val pop : 'a t -> (int * 'a) option
(** For tests: the heap model pops with a tuple; the engine uses {!pop_min}.
    Remove and return the earliest event as [(time, payload)]. Allocating
    convenience wrapper over {!min_time} + {!pop_min}. *)

val peek_time : 'a t -> int option
(** For tests: the heap model checks the minimum. *)

val clear : 'a t -> unit
(** For tests: checks that a cleared heap is reusable. *)

val check_heap_property : 'a t -> bool
(** For tests: the heap invariant the property tests check. *)
