(** Driving a live sender with a precomputed policy (§3.3).

    "For a particular model and distribution of possible states, there
    will be a policy that can be computed in advance that prescribes the
    utility-maximizing behavior." This bridge closes the loop: solve the
    discretized send/idle MDP offline ({!Utc_pomdp.Sender_mdp}), turn its
    occupancy threshold into an {!Utc_core.Isender.decider}, and run it
    against the §4 ground truth with the same Bayesian filter as the
    planning sender. The belief supplies the expected bottleneck
    occupancy; the table supplies the action.

    The comparison experiment runs both senders on the same network and
    seed and reports their throughput, drops and deference side by
    side. *)

val decider :
  threshold:int ->
  'p Utc_core.Isender.decider
(** Send while the belief-expected bottleneck occupancy (packets,
    including the packet in service and this wakeup's pending sends) is
    below [threshold]; otherwise sleep one expected service time. The
    bottleneck is the first station of each hypothesis' model. *)

type comparison = {
  threshold : int;
  planner_sent : int;
  policy_sent : int;
  planner_goodput_bps : float;
  policy_goodput_bps : float;
  planner_cross_drops : int;
  policy_cross_drops : int;
  planner_wall : float;
  policy_wall : float;  (** Whole runs, belief filter included. *)
  planner_decide_wall : float;
  policy_decide_wall : float;
      (** The headline: wall seconds inside each sender's decider, table
          lookups vs simulation. *)
}

val compare_on_fig3 : ?seed:int -> ?duration:float -> ?alpha:float -> unit -> comparison
(** Both senders on the §4 square-wave network; the policy's threshold is
    solved from the MDP at the same alpha (capacity 8, cross 0.7). *)

val pp_report : Format.formatter -> comparison -> unit
