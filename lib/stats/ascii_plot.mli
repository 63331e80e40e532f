(** Terminal plots for the figure reports.

    Every figure of the paper is a 2-D series; these render them as ASCII
    so `utc fig1` or `utc fig3` shows the shape directly, alongside the
    gnuplot-ready data rows its [--out] writes. *)

type series = {
  label : string;
  points : (float * float) list;
}

val render :
  ?width:int ->
  ?height:int ->
  ?x_label:string ->
  ?y_label:string ->
  ?log_y:bool ->
  series list ->
  string
(** Multi-series scatter; each series gets the next marker from
    [*+ox#@]. Axes are annotated with min/max. Default 72x20. Empty
    series are skipped; returns a note if nothing is plottable. *)

val render_one :
  ?width:int -> ?height:int -> ?x_label:string -> ?y_label:string -> ?log_y:bool ->
  label:string -> (float * float) list -> string
