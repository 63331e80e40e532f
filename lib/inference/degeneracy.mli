(** Belief-collapse detection: a first-class monitor over {!Belief}.

    A stateful watchdog over the belief's weight diagnostics that the
    sender can consult every wakeup. Three symptoms are watched:

    - {b Rejection streak}: consecutive {!Belief.All_rejected} updates —
      the filter can no longer explain reality at all, the §3.2
      misspecification case.
    - {b ESS collapse}: effective sample size far below the support size —
      a handful of hypotheses carry all the mass while the rest are dead
      weight.
    - {b Weight concentration}: the top hypothesis holds essentially all
      the mass. On a discrete grid this is often {e convergence}, not
      collapse; the monitor reports it and leaves the
      policy to the caller (the ISender's recovery ladder only acts on
      rejection streaks).

    The monitor holds only the streak counters; everything else is
    computed from the belief at {!observe} time. *)

type config = {
  ess_ratio_floor : float;  (** Signal when [ess / size] drops below (default 0.1). *)
  top_weight_ceiling : float;
      (** Signal when the heaviest hypothesis' weight reaches this
          (default 0.999). *)
  streak_limit : int;
      (** Signal after this many consecutive rejected updates (default 3). *)
}

val default_config : config

type signal =
  | Rejection_streak
  | Ess_collapse
  | Weight_concentration

val pp_signal : Format.formatter -> signal -> unit

type t

val create : ?config:config -> unit -> t
(** @raise Invalid_argument if [streak_limit < 1]. *)

val observe : t -> 'p Belief.t -> Belief.update_status -> signal list
(** Feed one filtering step's result; returns the symptoms currently
    present (empty = healthy). Updates the streak counters, and journals
    one [Degeneracy_signal] per symptom while the sink is enabled. *)

val streak : t -> int
(** Current consecutive-rejection streak. *)

val worst_streak : t -> int
(** Longest streak seen since creation. *)

val reset : t -> unit
(** Clear the current streak (call after a reseed). The worst-streak
    high-water mark is preserved. *)

(** {1 Stateless probes} *)

val top_weight : 'p Belief.t -> float
(** Weight of the heaviest hypothesis; 0 for an empty belief. *)

val ess_ratio : 'p Belief.t -> float
(** [Belief.ess / size]; 0 for an empty belief. *)
