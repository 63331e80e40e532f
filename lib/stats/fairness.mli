(** Allocation fairness metrics. *)

val jain : float list -> float
(** Jain's index [(sum x)^2 / (n * sum x^2)]: 1 when all equal, 1/n when
    one flow takes everything. Allocations must be non-negative; 0 if the
    total is 0.
    @raise Invalid_argument on an empty list. *)
