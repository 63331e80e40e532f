(** Finite Markov decision processes and exact solvers.

    §3.3 remarks that "the sender's algorithm need not be executed in
    real time. For a particular model and distribution of possible
    states, there will be a policy that can be computed in advance that
    prescribes the utility-maximizing behavior." This module provides the
    machinery: finite MDPs with value iteration and policy extraction.
    {!Sender_mdp} discretizes the transmission problem onto it. *)

type t = {
  states : int;  (** States are [0 .. states-1]. *)
  actions : int;  (** Actions are [0 .. actions-1]. *)
  transition : int -> int -> (int * float) list;
      (** [transition s a] lists [(s', p)] with [p] summing to 1. *)
  reward : int -> int -> float;  (** Expected immediate reward of [(s, a)]. *)
}

val validate : t -> (unit, string) result
(** Checks dimensions, probability ranges and per-(s,a) normalization. *)

type solution = {
  values : float array;  (** Optimal value per state. *)
  policy : int array;  (** Maximizing action per state. *)
  iterations : int;
  residual : float;  (** Final Bellman residual (sup norm). *)
}

val value_iteration : ?discount:float -> ?epsilon:float -> ?max_iterations:int -> t -> solution
(** Standard value iteration. [discount] defaults to 0.95, [epsilon]
    (stop when the residual drops below it) to 1e-9, [max_iterations] to
    100_000.
    @raise Invalid_argument if the MDP fails {!validate} or
    [discount] is outside [0, 1). *)

val evaluate_policy : ?discount:float -> ?epsilon:float -> t -> policy:int array -> float array
(** Iterative policy evaluation: the value of following [policy]. *)

val greedy : ?discount:float -> t -> values:float array -> int array
(** One-step lookahead policy with respect to [values]. *)
