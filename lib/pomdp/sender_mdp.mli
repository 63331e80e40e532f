(** The transmission-control problem as a finite MDP (§3.3).

    A discretization of the paper's setting small enough to solve
    exactly: time advances in service-slot ticks, the state is the
    bottleneck queue occupancy (packets, 0..8), and each tick the sender
    chooses {e send} or {e idle}. Cross traffic arrives with probability
    [cross_prob] per tick; the queue serves one packet per tick. Rewards
    are credited at admission, discounted by the queueing delay the
    packet will experience ([0.98^occupancy]) and weighted [alpha] for
    cross traffic — the same utility the online planner prices by
    simulation.

    Solving it with {!Mdp.value_iteration} yields the precomputed policy
    the paper says must exist; the tests check it has the expected
    threshold structure (send below an occupancy threshold that falls as
    [alpha] rises). *)

type config = {
  cross_prob : float;  (** Cross arrival probability per tick. *)
  alpha : float;  (** Relative value of cross traffic. *)
}

val default : config
(** cross 0.7, alpha 1. *)

val make : config -> Mdp.t
(** States: occupancy [0..8]; actions: 0 = idle, 1 = send.
    @raise Invalid_argument if [cross_prob] is outside [0, 1]. *)

val solve : config -> Mdp.solution

val send_threshold : Mdp.solution -> int
(** Largest occupancy at which the policy still sends, plus one — i.e.
    the policy sends iff [occupancy < send_threshold]. 0 means the
    policy never sends.
    @raise Invalid_argument if the policy is not of threshold form. *)

val pp_policy : Format.formatter -> Mdp.solution -> unit
