(** The paper's headline evaluation (Section 5, Figure 4): throughput of
    the file-system name-resolution benchmark, with and without CoreTime,
    as total directory data sweeps past the machine's cache capacities.

    {!fig4a} is the uniform-popularity sweep; {!fig4b} oscillates the
    number of directories accessed between the full set and a sixteenth of
    it, exercising the rebalancer. *)

type row = {
  kb : int;
  dirs : int;
  without_ct : Harness.point;
  with_ct : Harness.point;
  occ_without : (int * int) option;
      (** (distinct lines on chip, hardware-replicated lines) at the end
          of the baseline cell, when the sweep ran with the observatory. *)
  occ_with : (int * int) option;  (** Same for the CoreTime cell. *)
}

val sweep :
  ?progress:(string -> unit) ->
  ?jobs:int ->
  ?metrics:bool ->
  ?occupancy:int ->
  quick:bool ->
  oscillation:Harness.oscillation option ->
  unit ->
  row list
(** [metrics] (default false) attaches a measured-window metrics recorder
    to every cell; {!print_rows} then appends op-latency percentile
    columns. [occupancy] (a sampling interval in cycles) attaches a
    cache-observatory occupancy tracker to every cell and fills the
    [occ_*] row fields; the tracker observes only, so the points are
    bit-identical either way. *)

val to_series : row list -> O2_stats.Series.t * O2_stats.Series.t
(** (with CoreTime, without CoreTime). *)

val print_rows : Format.formatter -> row list -> unit
val print_figure : Format.formatter -> title:string -> row list -> unit
(** Table + ASCII rendering of the figure + the Section 5 shape claims. *)

val fig4a :
  ?quick:bool ->
  ?jobs:int ->
  ?obs:Harness.obs ->
  Format.formatter ->
  unit

val fig4b :
  ?quick:bool ->
  ?jobs:int ->
  ?obs:Harness.obs ->
  Format.formatter ->
  unit
(** [jobs] (default 1) runs the sweep's independent cells as tasks on
    {!O2_native.Native_pool.map} with that many workers; the rows are
    bit-identical whatever [jobs] is. [obs.metrics] adds per-cell latency
    columns; [obs.trace] re-runs one representative 8 MB cell with a
    flight recorder and writes its Perfetto JSON there. *)

val oscillation_default : Harness.oscillation
