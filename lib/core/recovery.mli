(** The ISender's misspecification recovery ladder.

    A pure state machine — no engine, no clock, no I/O — driven by one
    event per filtering step and answering with at most one action. The
    ladder encodes the paper's §3.5 open question ("what should the
    sender do when no configuration explains the observations?") as a
    graceful-degradation policy:

    {v
      Healthy --k1 rejections--> Suspect --k rejections total--> (reseed)
                                                                    |
      Healthy <--calm streak + reconcentrated posterior-- Probing <-'
    v}

    - {b Healthy}: the filter explains reality; the planner runs
      normally.
    - {b Suspect}: 2 consecutive {!Belief.All_rejected} updates. Still
      planning normally — a single consistent update clears the
      suspicion — but the ladder is armed.
    - {b Reseed}: at {!reseed_after} consecutive rejections the ladder
      fires {!Fire_reseed}: the caller replaces the collapsed posterior
      (see {!Utc_inference.Belief.reseed}) and the ladder enters
      Probing. The rejection streak therefore never exceeds
      {!reseed_after}.
    - {b Probing}: the sender ignores the (not-yet-trusted) planner and
      paces conservatively, one packet per [interval], starting at 1 s —
      AIMD-style: each further rejection doubles the interval (capped at
      16 s), each consistent update multiplies it by 0.8. After 5
      consecutive consistent updates {e and} a top-hypothesis weight of
      at least 0.5, the posterior is considered re-concentrated and the
      ladder returns to Healthy. *)

type phase =
  | Healthy
  | Suspect
  | Probing

val phase_equal : phase -> phase -> bool
val pp_phase : Format.formatter -> phase -> unit

type config
(** The ladder has no settings: [Isender]'s [recovery = Some
    default_config] says that it runs. *)

val default_config : config

val reseed_after : int
(** Consecutive rejections before a reseed fires: 4, the bound [k] on
    the rejection streak. *)

type event =
  | Rejected  (** The filtering step returned {!Belief.All_rejected}. *)
  | Accepted of { top_weight : float }
      (** A consistent update; [top_weight] is the heaviest hypothesis'
          posterior mass (the weight of {!Utc_inference.Belief.top}
          [~n:1]). *)

type action =
  | No_action
  | Fire_reseed
      (** The caller must replace the posterior now; the ladder has
          already moved to Probing and reset its streak. *)

type t

val initial : unit -> t

val step : ?at:float -> t -> event -> t * action
(** Pure: returns the successor state and the action to take. With
    [?at] (the current sim-time) a phase change is additionally
    journaled as a [Recovery_transition] telemetry event — the returned
    state is identical either way. *)

val phase : t -> phase

val interval : t -> float
(** Current probe pacing interval (meaningful while Probing). *)

val reseeds : t -> int
(** Reseeds fired since {!initial}. *)
