(** Log-space weight arithmetic for the hypothesis set. *)

val logsumexp : float list -> float
(** [log (sum_i (exp x_i))], stable; [neg_infinity] for an empty or
    all-[neg_infinity] list. *)

val normalize : float list -> float list
(** Shift so the weights sum to 1 in linear space. *)

val entropy : float list -> float
(** Shannon entropy (nats) of normalized log-weights. *)

(** {1 Flat-array variants}

    Same math, same left-to-right summation order — a belief stored as a
    flat [float array] normalizes to exactly the bits the list pipeline
    produced. *)

val logsumexp_arr : float array -> float

val logsumexp2 : float -> float -> float
(** [logsumexp [a; b]], without the list. *)
