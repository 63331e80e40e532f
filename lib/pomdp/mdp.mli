(** Finite Markov decision processes and exact solvers.

    §3.3 remarks that "the sender's algorithm need not be executed in
    real time. For a particular model and distribution of possible
    states, there will be a policy that can be computed in advance that
    prescribes the utility-maximizing behavior." This module provides the
    machinery: finite MDPs with value iteration and greedy policy
    extraction.
    {!Sender_mdp} discretizes the transmission problem onto it, and is
    the one problem solved here, so the solvers fix their constants: a
    discount of 0.95 per step, and a stop once the Bellman residual is
    at most 1e-9 (value iteration also stops after 100,000 sweeps). *)

type t = {
  states : int;  (** States are [0 .. states-1]. *)
  actions : int;  (** Actions are [0 .. actions-1]. *)
  transition : int -> int -> (int * float) list;
      (** [transition s a] lists [(s', p)] with [p] summing to 1. *)
  reward : int -> int -> float;  (** Expected immediate reward of [(s, a)]. *)
}

type solution = {
  values : float array;  (** Optimal value per state. *)
  policy : int array;  (** Maximizing action per state. *)
  iterations : int;
  residual : float;  (** Final Bellman residual (sup norm). *)
}

val value_iteration : t -> solution
(** Standard value iteration; the policy is the one-step lookahead
    (greedy) policy with respect to the final values.
    @raise Invalid_argument if the MDP's dimensions, probability ranges
    or per-(s,a) normalization are wrong. *)
