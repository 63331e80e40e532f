(** Scalar sample summaries. *)

type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val of_list : float list -> t option
(** [None] on an empty list. Percentiles by nearest-rank on the sorted
    samples. *)

val percentile : float list -> q:float -> float
(** Nearest-rank percentile, [0 <= q <= 1].
    @raise Invalid_argument on an empty list or out-of-range [q]. *)

val pp : Format.formatter -> t -> unit
