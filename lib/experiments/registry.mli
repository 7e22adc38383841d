(** The experiment catalogue: every paper figure/table plus the ablations,
    addressable by id from the benchmark harness and the CLI. *)

type exp = {
  id : string;
  title : string;
  paper_ref : string;  (** Where in the paper this comes from. *)
  default_set : bool;  (** Run when no ids are given (the paper's own
                           figures and tables). *)
  run :
    quick:bool ->
    jobs:int ->
    obs:Harness.obs ->
    Format.formatter ->
    (unit, string) result;
      (** [Error] when the experiment's own check fails (the native
          oracle cross-check); experiments that only print return
          [Ok ()]. *)
}

val all : exp list
val ids : unit -> string list

val run_ids :
  ?obs:Harness.obs ->
  ?catalogue:exp list ->
  quick:bool ->
  jobs:int ->
  Format.formatter ->
  string list ->
  (unit, string) result
(** Run the named experiments in catalogue order ([Error] lists unknown
    ids without running anything). An empty list runs the default set.
    Every selected experiment runs; when any returns [Error], the result
    is an [Error] joining their messages, so callers exit nonzero on a
    failed check. [catalogue] (default {!all}) is the list ids are looked
    up in.
    [jobs] is the {!O2_native.Native_pool.map} width (taken literally)
    for experiments that parallelise their independent cells;
    [jobs = 1] runs everything sequentially with
    bit-identical output. [obs] (default {!Harness.no_obs}) carries the
    [--metrics] / [--trace] / [--trace-sample] flags to the experiments
    that support them (quickstart, the figures, and some ablations);
    the others ignore it. *)

(**/**)

val find : string -> exp option
(** For tests: the catalogue test looks each id up. *)
