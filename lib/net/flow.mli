(** Flow identity.

    [Primary] is the modeled endpoint's own flow (the ISender's, or the
    measured TCP download's). [Cross] is the paper's cross traffic (the
    PINGER). [Aux n] labels additional flows in multi-sender extension
    experiments. *)

type t =
  | Primary
  | Cross
  | Aux of int

val equal : t -> t -> bool

val compare : t -> t -> int
(** A total order that agrees with {!equal}: [compare a b = 0] exactly
    when [equal a b]. Negative [Aux] ids come first, then [Primary],
    [Cross], and [Aux 0], [Aux 1], .... *)

val hash : t -> int
(** Agrees with {!equal} ([equal a b] implies [hash a = hash b]) and
    tells distinct flows apart: [Primary] is 0, [Cross] 1, [Aux n] is
    [2 + n] for [n >= 0] and [n] for [n < 0]. The int type has fewer
    values than [t], so two pairs must share: [2 + n] wraps for
    [Aux (max_int - 1)] and [Aux max_int] onto the hashes of
    [Aux min_int] and [Aux (min_int + 1)]. *)

val rank : t -> int
(** Dense index for tables keyed by flow: [Primary] 0, [Cross] 1,
    [Aux n] [2 + n]. It is [-1] for an [Aux] id no array can be indexed
    by ([n < 0], or [2 + n >= Sys.max_array_length]);
    {!Topology.validate} rejects sources with such flows. *)

val of_rank : int -> t
(** Inverse of {!rank} on non-negative ranks. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
