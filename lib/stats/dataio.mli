(** Series and table files: gnuplot-ready output.

    The experiment drivers print human-readable reports; this module
    persists the underlying numbers so figures can be re-plotted without
    re-running simulations. Series files use the gnuplot "index" layout
    (blocks separated by two blank lines, each preceded by a [# label]
    comment); tables are plain comma-separated values with a header. *)

type series = {
  label : string;
  points : (float * float) list;
}

val write_series : path:string -> series list -> unit
(** Overwrites [path]. *)

val write_csv : path:string -> header:string list -> float list list -> unit
(** Rows must match the header's width.
    @raise Invalid_argument on a ragged row. *)
