(** Prior construction: grids, and the paper's §4 experiment family.

    The §4 experiment (Figure 2/3) draws the network from discretized
    uniform priors; {!paper_prior} reproduces the paper's table:

    {v
    c (link speed, bit/s)       10,000 <= c <= 16,000      actual 12,000
    r (pinger rate, pkt/s)      0.4c <= r <= 0.7c          actual 0.7c
    t (mean time to switch, s)  100 (fixed)                actual: 100 s square wave
    p (loss rate)               0 <= p <= 0.2              actual 0.2
    buffer capacity (bits)      72,000 <= x <= 108,000     actual 96,000
    initial fullness            0 <= x <= capacity         actual 0
    v} *)

type fig2_params = {
  link_bps : float;
  pinger_pps : float;
  loss_rate : float;
  buffer_bits : int;
  initial_packets : int;  (** Initial fullness, in 1,500-byte packets. *)
  mean_time_to_switch : float;
  gate_on : bool;  (** Cross traffic initially connected. *)
}

(** {1 Grid helpers} *)

val grid_float : lo:float -> hi:float -> step:float -> float list
(** Inclusive endpoints (within float tolerance). *)

val uniform : 'a list -> ('a * float) list
(** Equal weights summing to 1. *)

val paper_prior : unit -> (fig2_params * float) list
(** The table above, discretized: c at 1,000 bit/s steps, rate ratios
    0.4 to 0.7 at 0.1, p at 0.05 steps, capacity at 12,000-bit steps,
    fullness at whole packets. Uniform over the grid. *)

val paper_truth : fig2_params
(** The actual values of §4 (with the true square-wave period in
    [mean_time_to_switch]). *)

val paper_truth_topology : Utc_net.Topology.t
(** Ground truth of §4: same shape but the cross traffic is gated by a
    deterministic 100 s [Squarewave]. *)

(** {1 Hypotheses} *)

val hypotheses :
  ?config:Utc_model.Forward.config ->
  ?queued:('p -> int) ->
  ('p -> Utc_net.Topology.t) ->
  ('p * float) list ->
  ('p * float * Utc_model.Forward.prepared * Utc_model.Mstate.t) list
(** {!Belief.create} input from a prior over a model family: each cell's
    [model] compiled, prepared under [config] (default
    {!Utc_model.Forward.default_config}) and started at time 0 with the
    config's gate epoch. [queued p] (default 0) cross-flow packets start
    in the model's one station, the first in service; their sequence
    numbers run from -1 down, so they never collide with real traffic.
    @raise Invalid_argument if [queued p] is negative, or positive for a
    model that does not have exactly one station. *)

val seeds :
  config:Utc_model.Forward.config ->
  (fig2_params * float) list ->
  (fig2_params * float * Utc_model.Forward.prepared * Utc_model.Mstate.t) list
(** {!hypotheses} of the sender's model of Figure 2 — pinger through an
    [Intermittent] gate, shared buffer and link, last-mile loss — each
    with [initial_packets] queued. *)
