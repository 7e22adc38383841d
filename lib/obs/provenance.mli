(** Scheduler decision provenance: a bounded flight recorder of the
    {!O2_runtime.Probe.decision} records CoreTime's promotion path and the
    rebalancer emit, rendered as fully-explained decisions — the inputs
    the monitor saw, the score that won, the tie-break, and the action
    taken. This is the data behind [o2sim run --explain]. *)

type record = { time : int; decision : O2_runtime.Probe.decision }

type t

val attach : ?capacity:int -> O2_runtime.Engine.t -> t
(** Subscribe for the engine's lifetime; keep the most recent [capacity]
    (default 4096) decisions. *)

val render : t -> string
(** Every retained decision as a multi-line [inputs / score-or-choice /
    action] explanation, with a showing-N-of-M header that accounts for
    ring drops honestly. *)

(**/**)

val records : t -> record list
(** For tests: checks one record per simulator promotion.
    Retained decisions, oldest first. *)

val count : t -> int
(** For tests: ring accounting. *)

val total : t -> int
(** For tests: ring accounting. *)

val dropped : t -> int
(** For tests: ring accounting. *)
