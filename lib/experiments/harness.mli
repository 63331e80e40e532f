(** Shared driver for the §4 experiments: ground truth + ISender + logs.

    Builds the ground-truth network, seeds the belief from a prior over
    the Figure 2 family, wires receiver and sender, runs to a horizon, and
    collects everything the figures plot. *)

type config = {
  truth : Utc_net.Topology.t;  (** Ground-truth network. *)
  prior : (Utc_inference.Priors.fig2_params * float) list;
  alpha : float;
  kappa : float;
  cross_discounted : bool;
  latency_penalty : float;
  duration : float;
  seed : int;
  max_hyps : int;
  cap_policy : Utc_inference.Belief.cap_policy;
  epoch : float;  (** Gate fork epoch (s). *)
  loss_mode : [ `Likelihood | `Fork ];
      (** The model's last-mile loss handling ({!Utc_model.Forward.config});
          every report runs [`Likelihood]. *)
}

val default : config
(** The paper's §4 experiment: square-wave truth, full paper prior,
    [alpha = 1], 300 s. *)

val paper_delays : float list
(** Candidate delays scaled to the §4 link (service time 1 s; residual
    pace against a 0.7c pinger is 3.33 s): the planner's delays in
    {!run}. *)

type sample = {
  at : Utc_sim.Timebase.t;
  belief_size : int;
  entropy : float;
  truth_mass : float;
      (** Posterior mass on the true (c, r, p, capacity) cell. *)
  m_link : float;  (** P(c = true c). *)
  m_rate : float;  (** P(r = true r). *)
  m_loss : float;  (** P(p = true p). *)
  m_buffer : float;  (** P(capacity = true capacity). *)
  m_fullness : float;  (** P(initial fullness = true fullness). *)
}

type result = {
  config : config;
  sent : (Utc_sim.Timebase.t * int) list;  (** Figure 3's series. *)
  sent_count : int;  (** [List.length sent], carried O(1). *)
  delivered : int;  (** The sender's packets the receiver got. *)
  tail_drops_cross : int;  (** Tail drops of cross-traffic packets. *)
  samples : sample list;  (** Belief-convergence trace, oldest first. *)
  final_posterior : (Utc_inference.Priors.fig2_params * float) list;
  rejected_updates : int;
  wall_seconds : float;
}

val run : config -> result

val run_many : ?pool:Utc_parallel.Pool.t -> config list -> result list
(** Independent runs fanned across [pool] (default:
    {!Utc_parallel.Pool.default}), results in input order. Each run owns
    its engine and RNG (seeded from its config), so the results are
    bit-identical to mapping {!run} serially — only [wall_seconds]
    depends on the schedule. *)

val sends_in : result -> since:float -> until:float -> int
