(** The ISender's decision procedure (§3.2, task 2).

    At a wakeup the sender "makes a list of strategies including sending
    immediately and at every delay up to the slowest rate [it] could
    optimally send", prices each strategy on every plausible network
    configuration, and picks the strategy with the highest expected
    utility.

    Pricing a strategy [d]: inject the next packet at [now + d] into each
    of the belief's heaviest hypotheses, run the forking simulator to a
    common horizon, and take the expected utility of all deliveries in the
    window, minus the no-send baseline. Gates are frozen in their current
    state during planning (certainty-equivalent over the gate process —
    the mixture across hypotheses still carries gate uncertainty); loss is
    handled in expectation.

    A hypothesis whose baseline does not fork is priced off one recorded
    baseline ({!Utc_model.Forward.trace}): each candidate resumes from the
    baseline's state at its send and rejoins the baseline once the two
    states converge ({!Utc_model.Forward.resume}), and its gross utility
    adds the baseline's per-delivery utilities around its own in the
    order a full rollout folds them, so every evaluation is bit-identical
    to pricing each candidate with a full {!Utc_model.Forward.run}. A
    hypothesis whose baseline forks is priced with full runs.

    Hypotheses with one dynamics label ({!Utc_inference.Belief.hypothesis},
    whose models share dynamics: they differ at most in the rates of
    last-mile losses) and {!Utc_model.Mstate.equal} states share that
    work too, grouped by the filter's own rule
    ({!Utc_inference.Belief.shared_runs}). Models that share dynamics
    still do after {!Utc_model.Forward.plan_variant} turns gate forking
    off, so no group mixes planning models that run apart. The first
    member in index order traces the baseline and resumes each candidate
    once, and
    every member prices each resumed run with its own loss rates
    ({!Utc_utility.Utility.of_delivery}) and weight before the next
    candidate is resumed ({!gross_utilities}). A hypothesis that shares
    with none is a group of one. Only the members' contributions outlive
    the group's trace, so one trace is alive at a time.

    Tie-breaking prefers the {e latest} candidate within a relative
    [1e-3] of the best, which is what makes the sender fill residual
    capacity rather than stand in the queue: delaying until the queue
    drains costs [O(d/kappa)] while queue-standing harms cross traffic by
    the same order, so at [alpha = 1] the two cancel and the tie resolves
    to deference (§4). *)

type config = {
  delays : float list;
      (** Candidate extra delays, strictly ascending, first must be
          [0.]. *)
  horizon : float;  (** Simulated seconds past the last candidate. *)
  utility : Utc_utility.Utility.config;
}

val default_config : config
(** Delays 0..32 s on a rough geometric grid, 15 s horizon, default
    utility. *)

val top_hyps : int
(** The planner prices the belief's 64 heaviest hypotheses,
    renormalized. *)

type decision =
  | Send_now
  | Sleep of float  (** Re-plan after this many seconds (> 0). *)

type evaluation = {
  delay : float;
  net_utility : float;  (** Expected utility minus the no-send baseline. *)
}

type cache
(** Content-keyed gross-utility memo. A strategy's gross utility is a
    deterministic function of (hypothesis params, exact model state, send
    list, decision time, horizon end); the cache keys on exact byte
    encodings of all five (the per-hypothesis part collapsed to a digest,
    computed once per decision), so a hit is bit-identical to a fresh
    rollout and [decide] with a cache returns exactly what it returns
    without one. Traffic is asymmetric by design: only the baseline is
    looked up, and only the baseline and candidate 0 are stored — within
    a burst the pending list at wakeup [k+1] is exactly candidate 0's
    send list at wakeup [k], so baseline rollouts replay from the
    previous decision while the other candidates (whose sequence numbers
    advance every iteration) are never re-requested. Only hypotheses
    whose baseline forks consult it: the shared-baseline pricing above
    is cheaper than a lookup, so a decision over models that never fork
    while planning leaves {!cache_stats} unchanged. Thread-safe; bounded
    by [capacity] entries (reset wholesale on overflow). *)

val make_cache : ?capacity:int -> unit -> cache
(** Default capacity 8192 gross utilities. *)

val cache_stats : cache -> int * int
(** [(hits, misses)] since creation. *)

val gross_utilities :
  config ->
  now:Utc_sim.Timebase.t ->
  until:Utc_sim.Timebase.t ->
  Utc_model.Forward.prepared array ->
  Utc_model.Mstate.t ->
  pending:(Utc_sim.Timebase.t * Utc_net.Packet.t) list ->
  (Utc_sim.Timebase.t * Utc_net.Packet.t) array ->
  (float * float array) array option
(** Shared-baseline pricing of one group of hypotheses, as {!decide}
    runs it: [models] share dynamics
    ({!Utc_model.Forward.shares_dynamics}) and start from [state]. The
    baseline is traced and each of [sends] resumed once, under
    [models.(0)]; [Some priced] where [priced.(j) = (baseline, utilities)]
    under [models.(j)], [baseline] being the gross utility of [pending]
    alone and [utilities.(i)] that of [pending] followed by [sends.(i)],
    each equal bit for bit to {!Utc_utility.Utility.of_outcomes} over the
    matching {!Utc_model.Forward.run} of [models.(j)] to [until]; [None]
    when the baseline forks. *)

val decide :
  ?cache:cache ->
  config ->
  belief:'p Utc_inference.Belief.t ->
  now:Utc_sim.Timebase.t ->
  pending:(Utc_sim.Timebase.t * Utc_net.Packet.t) list ->
  make_packet:(Utc_sim.Timebase.t -> Utc_net.Packet.t) ->
  decision * evaluation list
(** [pending] are transmissions not yet absorbed into the belief (this
    wakeup's earlier sends); [make_packet at] builds the next packet as if
    sent at [at]. Returns the decision and the per-candidate evaluations
    (for logging and the experiment traces). If no candidate nets positive
    utility the decision is to sleep until the last candidate.
    [make_packet] is called once per candidate.

    Hypotheses are priced in index order, each one's contribution added
    into the per-candidate sums in that order (a group that shares a
    baseline is priced at its first member); the decision and
    evaluations are bit-identical with or without [cache], and to
    pricing every hypothesis alone.
    @raise Invalid_argument if [delays] does not start at [0.] and
    ascend strictly, or [horizon] is not positive. *)
