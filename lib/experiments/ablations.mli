(** Ablations over the design choices DESIGN.md calls out.

    - Inference cap policy: exact fork/prune/compact with a top-K cap vs
      the bounded systematic-resampling particle filter (§5 notes
      rejection sampling "is not as scalable as other approaches").
    - Gate fork epoch: coarser epochs fork less but track the square wave
      more loosely.
    - Loss handling: exact per-packet likelihood weighting vs literal
      2-way forking (they must agree; forking is exponentially more
      states). *)

type row = {
  label : string;
  sent : int;
  delivered : int;
  truth_mass : float;  (** Final posterior mass on the true cell. *)
  mean_hyps : float;  (** Mean belief size across wakeups. *)
  max_hyps_seen : int;
  rejected : int;
  wall_seconds : float;
}

val cap_policy : ?seed:int -> ?duration:float -> unit -> row list
(** Top-K at 20k (reference), top-K at 256, resampling at 256. *)

val epoch : ?seed:int -> ?duration:float -> unit -> row list
(** Gate fork epochs 0.5 s, 1 s, 2 s, 5 s. *)

val loss_mode : ?seed:int -> ?duration:float -> unit -> row list
(** Likelihood weighting vs 2-way forking on a shortened run. *)

val pp_rows : Format.formatter -> row list -> unit
