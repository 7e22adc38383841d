(** Validation of the machine model against the paper's Section 5 hardware
    description: L1/L2/L3 hit latencies (3 / 14 / 75 cycles), remote
    fetches from 127 cycles (cache of a core on the same chip) to 336
    cycles (most distant DRAM bank), and the 2000-cycle thread migration.

    Each row places a line at a precise location and measures one access;
    the migration row measures a round trip through the runtime. *)

type probe = {
  label : string;
  paper_cycles : int option;  (** What Section 5 reports, when it does. *)
  measured_cycles : int;
}

val print : Format.formatter -> unit

(**/**)

val all : unit -> probe list
(** For tests: the latency-table test checks every probe. *)

val max_deviation : unit -> float
(** For tests: the latency-table test asserts this stays small.
    Largest relative |measured - paper| / paper over probes with a paper
    value; the test suite asserts this is small. *)
