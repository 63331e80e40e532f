(** The explicit utility function the sender maximizes (§3.3).

    [u(delivery) = s * bits * gamma(time - now)] for the sender's own
    packets, where [s] is the delivery's survival probability under the
    model that predicted it ({!Utc_model.Forward.survive_p}: the product
    of [1 - rate] over the last-mile losses the packet crossed).
    Cross-traffic packets count [alpha * s * bits] (optionally
    discounted too), minus an optional penalty on the latency the cross
    traffic experiences ([latency_penalty * s * bits * (time - sent_at)]).

    The paper's Figure 3 varies [alpha]: below 1 the sender has no reason
    to defer to cross traffic; at 1 it fills the link's residual capacity;
    above 1 it becomes increasingly deferential. *)

type config = {
  alpha : float;  (** Relative value of cross-traffic throughput. *)
  kappa : float;  (** Discount timescale, seconds. *)
  latency_penalty : float;
      (** Penalty per bit-second of cross-traffic delay (utility units). *)
  cross_discounted : bool;
      (** Apply the temporal discount to cross traffic too. Read literally,
          the paper's §4 utility is "our own instantaneous throughput
          [discounted], plus alpha times the throughput achieved by the
          cross traffic" [undiscounted]. Discounting cross traffic is the
          optional "penalty for creating latency for other users" of
          §3.3. [Harness.default] (and so Figure 3), [Versus] and
          [Policy_bridge] discount it. *)
}

val default : config
(** [alpha = 1], [kappa = 60 s], no latency penalty, cross traffic
    undiscounted: the literal reading of §4's utility. The §4 experiments
    do not run it as is: [Harness.default] sets [cross_discounted = true]. *)

val make :
  ?alpha:float ->
  ?kappa:float ->
  ?latency_penalty:float ->
  ?cross_discounted:bool ->
  unit ->
  config

val of_delivery :
  config ->
  Utc_model.Forward.prepared ->
  now:Utc_sim.Timebase.t ->
  Utc_model.Forward.delivery ->
  float
(** Instantaneous utility of one (possibly uncertain) delivery of a run
    under the given model, from the vantage point of [now]. Deliveries of
    [Flow.Primary] count at weight 1, all other flows at [alpha] with the
    latency penalty applied. *)

val of_outcomes :
  config ->
  Utc_model.Forward.prepared ->
  now:Utc_sim.Timebase.t ->
  Utc_model.Forward.outcome list ->
  float
(** Expected utility across forked outcomes of a run under the given
    model: each outcome's deliveries sum their {!of_delivery}, weighted
    by [exp logw]. *)
