(** Terminal line plots, so [o2sim run] can render each figure the
    way the paper prints it (y = throughput, x = total data size) without
    any plotting dependency. *)

val render :
  ?width:int ->
  ?height:int ->
  ?x_label:string ->
  ?y_label:string ->
  Series.t list ->
  string
(** Plot the series on one canvas; each series gets a distinct glyph
    (shown in the legend). Empty input renders an empty string. *)
