(** The sender's probability distribution over network configurations.

    A belief is a weighted set of hypotheses, each one network
    configuration: a parameter vector (opaque to this module), the
    compiled model those parameters describe, and a persistent dynamic
    state. {!update} is the paper's filtering step (§3.2): every
    hypothesis is simulated over the window since the last wakeup, forks
    multiply the set, outcomes inconsistent with the observed ACKs are
    removed (or down-weighted by the exact loss likelihood), weights are
    renormalized, and configurations that converged to identical states
    are compacted back into one.

    Every hypothesis carries a dynamics label: {!create} and {!reseed}
    label their hypotheses with {!Utc_model.Forward.dynamics_labels}, so
    two hypotheses share a label exactly when their models share
    dynamics ({!Utc_model.Forward.shares_dynamics}: they differ at most
    in the rates of last-mile losses), and a hypothesis forked by a step
    keeps its parent's label. Hypotheses with one label and
    {!Utc_model.Mstate.equal} states ({!shared_runs}) share one
    simulation per step: the first of them in hypothesis order runs it,
    and each scores its outcomes with its own parameters, observation
    offset, awaiting deliveries and loss rates
    ({!Utc_model.Forward.survive_p}). An outcome's primary deliveries are
    picked out, and its state hashed, once for all the hypotheses
    sharing its run. Its match against the ACKs (which deliveries are
    due, whether their times and the set of ACKs fit, and which due
    deliveries were acknowledged) is made once per observation offset
    for the sharers that carry no awaiting deliveries; each sharer then
    adds its own survival or loss terms. A run and a match do not
    depend on those rates, so the result is bit-identical to simulating
    and scoring each hypothesis alone. The return-delay grid of
    {!create}'s [obs_offset] shares runs the same way.

    Compaction merges two outcomes of a step when their parameters are
    equal (the same value, or values that marshal to the same bytes),
    their states are {!Utc_model.Mstate.equal}, and their awaiting
    deliveries are bit-identical (time, packet and loss trail). The
    merged hypothesis is the first such outcome in hypothesis order,
    carrying the log-sum of all their weights, added in that order.
    Then hypotheses lighter than [min_weight] times the heaviest are
    pruned, the weights normalized, the cap policy applied, the weights
    normalized again, and the set sorted heaviest first, ties in
    hypothesis order.

    Cap policies bound the set: [`Top_k] keeps the heaviest hypotheses
    (deterministic; small bias), [`Resample] is a bounded particle filter
    with systematic resampling (unbiased; the scalable alternative the
    paper's §5 calls for). *)

type ack = { seq : int; time : Utc_sim.Timebase.t }
(** Receipt of the sender's packet [seq], reported instantly by the
    receiver (§3.4: synchronized clocks, lossless instant return path). *)

type 'p hypothesis = {
  params : 'p;
  prepared : Utc_model.Forward.prepared;
  state : Utc_model.Mstate.t;
  label : int;
      (** The model's dynamics class: two hypotheses of one belief share
          a label exactly when their models share dynamics
          ({!Utc_model.Forward.shares_dynamics}). *)
  hash : int;
      (** [Utc_model.Mstate.hash state], computed once when the state
          was stored, for {!shared_runs}. *)
  logw : float;  (** Normalized: [logsumexp] over the belief is 0. *)
  awaiting : Utc_model.Forward.delivery list;
      (** Deliveries whose acknowledgment (shifted by the observation
          offset) is not due yet. Empty unless [obs_offset] is used. *)
}

type 'p t

type cap_policy =
  [ `Top_k
  | `Resample of Utc_sim.Rng.t
  ]

val create :
  ?min_weight:float ->
  ?max_hyps:int ->
  ?cap_policy:cap_policy ->
  ?obs_offset:('p -> float) ->
  ('p * float * Utc_model.Forward.prepared * Utc_model.Mstate.t) list ->
  'p t
(** [min_weight] (default 1e-9) prunes hypotheses lighter than
    [min_weight * heaviest], and 0 prunes none; [max_hyps] (default
    20_000) triggers the cap policy (default [`Top_k]). Initial weights
    are normalized.

    [obs_offset] (default 0) maps a hypothesis to the shift between a
    packet's delivery time and the moment its acknowledgment reaches the
    sender's clock: a hypothesized return-path delay plus receiver clock
    skew, the §3.4/§3.5 future-work parameters. Deliveries whose shifted
    acknowledgment is not yet due are held in {!hypothesis.awaiting} and
    scored in a later window.

    @raise Invalid_argument if [min_weight] is outside [0, 1] (or NaN),
    or [max_hyps < 1]: either would empty the belief at its first
    update. *)

type update_status =
  | Consistent
  | All_rejected
      (** Every configuration was inconsistent with the observations
          (model misspecification); the belief was advanced without
          conditioning so the sender can keep operating. *)

val update :
  'p t ->
  sends:(Utc_sim.Timebase.t * Utc_net.Packet.t) list ->
  acks:ack list ->
  now:Utc_sim.Timebase.t ->
  ?now_prio:int ->
  unit ->
  'p t * update_status
(** Advance every hypothesis to [(now, now_prio)] (see
    {!Utc_model.Forward.run}) with the sender's [sends] injected, then
    condition on [acks]: a predicted delivery matching an ACK within
    1 µs contributes its survival likelihood, a predicted delivery with
    no ACK contributes its loss likelihood, and an outcome that predicts a
    wrong time — or misses an observed ACK, or has no loss to blame a
    missing ACK on — is removed. *)

val advance :
  'p t ->
  sends:(Utc_sim.Timebase.t * Utc_net.Packet.t) list ->
  now:Utc_sim.Timebase.t ->
  ?now_prio:int ->
  unit ->
  'p t
(** {!update} without conditioning (prediction only). *)

val reseed :
  'p t ->
  seeds:('p * float * Utc_model.Forward.prepared * Utc_model.Mstate.t) list ->
  ?keep:float ->
  now:Utc_sim.Timebase.t ->
  unit ->
  'p t
(** Recovery from belief collapse (model misspecification, §3.5 open
    question): inject [seeds] — fresh configurations, typically a prior
    re-widened around the current MAP estimate — as new hypotheses
    {e anchored at [now]}: each seed state's clock, the origin of its
    pinger and periodic-gate clocks (its [origin]),
    pending events and in-service completions are shifted so its history
    restarts at [now], exactly as {!Utc_model.Mstate.initial} would
    describe time 0.

    [keep] (default 0) is the posterior mass retained by the current
    hypotheses; the fresh seeds are normalized among themselves and share
    the remaining [1 - keep]. Deterministic: no randomness is consumed.

    @raise Invalid_argument if [keep] is outside [0, 1), [now] precedes
    the belief's time, no seed has positive weight, or [keep > 0] while a
    current hypothesis is not at [now]. *)

(** {1 Queries} *)

val support : 'p t -> 'p hypothesis list
(** Heaviest first. *)

val fold :
  'p t ->
  init:'a ->
  f:('a -> params:'p -> prepared:Utc_model.Forward.prepared -> state:Utc_model.Mstate.t -> logw:float -> 'a) ->
  'a
(** Folds [f] over the hypotheses in {!support}'s order, passing each
    one's columns without building a {!hypothesis}. *)

val top : 'p t -> n:int -> 'p hypothesis list

val size : 'p t -> int

val shared_runs : labels:int array -> hashes:int array -> Utc_model.Mstate.t array -> int array
(** [shared_runs ~labels ~hashes states] maps each index [i] to the
    first index [j <= i] with the same dynamics label and a
    {!Utc_model.Mstate.equal} state, so a run from [j] serves [i]; the
    identity when nothing is shared. [hashes.(i)] must be
    [Utc_model.Mstate.hash states.(i)], as {!hypothesis.hash} is: it
    hashes nothing itself. The one grouping rule of the filter and the
    planner.
    @raise Invalid_argument if the arrays differ in length. *)

val now : 'p t -> Utc_sim.Timebase.t

val posterior : 'p t -> ('p * float) list
(** Marginal over parameter vectors (summing the states within each),
    heaviest first. Weights sum to 1. *)

val map_estimate : 'p t -> 'p * float
(** Heaviest parameter vector and its posterior mass.
    @raise Invalid_argument on an empty belief. *)

val entropy : 'p t -> float
(** Entropy (nats) over parameter vectors: [posterior_entropy (posterior t)]. *)

val posterior_entropy : ('p * float) list -> float
(** Entropy (nats) of a {!posterior}'s weights, for a caller that already
    holds the posterior. *)

val ess : 'p t -> float
(** Effective sample size of the hypothesis weights, [1 / Σ w²]: ranges
    from 1 (all mass on one hypothesis) to {!size} (uniform). Every
    [belief_update] journal event reports it. *)
