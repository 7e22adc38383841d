(** Multi-producer single-consumer mailbox: cross-domain task delivery.

    Every pool worker owns one inbox; any domain (workers shipping
    operations, the coordinator spawning clients) may {!push} into it,
    but only the owner drains it. Internally a Treiber stack: [push] is
    one CAS (plus the cons cell it links — the producer side is allowed
    that allocation), and {!drain_into} detaches the whole stack with a
    single [Atomic.exchange], then replays it in FIFO order through a
    consumer-owned scratch array so the drain loop itself allocates
    nothing once the scratch has warmed up. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [dummy] is never delivered; it back-fills scratch slots after use so
    drained tasks do not linger reachable. *)

val push : 'a t -> 'a -> unit
(** Any domain. Lock-free; retries its CAS under contention. *)

val drain_into : 'a t -> ('a -> unit) -> int
(** Owner only: atomically take everything pushed so far and apply [f]
    to each element, oldest first (per-producer FIFO; pushes racing the
    drain are left for the next one). Returns how many were delivered.
    [f] may push into {e other} inboxes but must not touch this one's
    drain side — [drain_into] is not reentrant. *)

(**/**)

val is_empty : 'a t -> bool
(** For tests: the inbox tests check it drains.
    Snapshot; a racing push can invalidate it immediately. *)
