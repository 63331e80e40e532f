(** Deterministic forking execution of a hypothesized network (§3.2).

    Advances an {!Mstate.t} to a target time, injecting the sender's own
    transmissions, and returns every weighted way the nondeterministic
    elements could have behaved, together with the packet deliveries each
    way produces. This one function serves both of the ISender's jobs: the
    Bayesian filter runs it over the window since the last wakeup and
    scores each outcome against the observed ACKs, and the planner runs it
    into the future to price candidate transmission times.

    Nondeterminism policy:
    - [Loss] whose downstream contains no queue ("last mile", as the paper
      recommends) does not fork: a packet crossing it records the loss's
      node id on its trail, whatever the rate, and {!survive_p} weights
      each delivery by the model's own rates over that trail —
      mathematically identical, exponentially cheaper. A run is then the
      same for every rate such losses have (see {!shares_dynamics}). A
      [Loss] in front of a queue always forks, whatever [loss_mode] says,
      because its consequences linger.
    - Memoryless gates and [Either]s fork at decision epochs of [epoch]
      seconds with the exact two-state Markov flip probability
      [(1 - exp (-2 epoch / mtts)) / 2]; with [fork_gates = false] they
      are frozen in their current state (certainty-equivalent planning),
      and a frozen gate's pending epoch event is consumed, not
      rescheduled: it would change nothing but later sequence numbers.
    - [Jitter] forks per packet.
    - Periodic gates are deterministic and never fork. *)

type config = {
  loss_mode : [ `Likelihood | `Fork ];
      (** [`Fork] forces forking even at last-mile losses (used by tests
          to validate the likelihood shortcut). *)
  fork_gates : bool;
  epoch : float;  (** Gate decision-epoch length, seconds. *)
  max_branches : int;
      (** Soft cap on simultaneous branches; beyond it the lightest branch
          is discarded (its mass is lost; callers renormalize). The
          [model.forward.branches_dropped] counter counts the discards. *)
}

val default_config : config
(** Likelihood losses, forking gates, 1 s epochs, 1024 branches. *)

type delivery = {
  time : Utc_sim.Timebase.t;
  packet : Utc_net.Packet.t;
  trail : int list;
      (** Node ids of the likelihood-mode losses the packet crossed,
          newest first; empty for fork-mode branches. {!survive_p} turns
          it into the probability the delivery really happened. *)
}

type outcome = {
  state : Mstate.t;  (** At [until]. *)
  logw : float;  (** Log-weight of this branch relative to siblings. *)
  deliveries : delivery list;  (** Ascending in time; all flows. *)
}

type prepared

val prepare : config -> Utc_net.Compiled.t -> prepared
(** Precomputes per-node analysis (last-mile losses); reuse across runs.
    @raise Invalid_argument naming the node if the network has a station
    whose discipline is not [Fifo]: ARQ, RED and CoDel run only in the
    ground-truth runtime. *)

val compiled_of : prepared -> Utc_net.Compiled.t

val survive_p : prepared -> delivery -> float
(** The probability that a delivery of a run under this model really
    happened: [1.0 *. (1.0 -. r1) *. (1.0 -. r2) ...] over the rates of
    the model's losses on the delivery's trail, in crossing order; a rate
    of 0 multiplies nothing. The trail must come from a run under a model
    that shares this one's dynamics. *)

(* lint:allow R13 -- oracle of test_agreement "dynamics labels are exactly the shares_dynamics classes" *)
val shares_dynamics : prepared -> prepared -> bool
(** The two models run alike: their configs and compiled graphs agree
    bit for bit, except for the rates of likelihood-mode losses. Then
    {!run}, {!trace} and {!resume} from {!Mstate.equal} states give
    outcomes with equal states, the same log-weight bits and the same
    deliveries (time, packet and trail) under either model; only
    {!survive_p} tells them apart. Compares a hash of the dynamics,
    computed by {!prepare}, first, so models that do not share dynamics
    are usually told apart at once. *)

val dynamics_labels : prepared array -> int array
(** [dynamics_labels models] labels each model with its class under
    {!shares_dynamics}: [labels.(i) = labels.(j)] exactly when
    [shares_dynamics models.(i) models.(j)]. Labels count up from 0 in
    order of first appearance. Models are bucketed by the dynamics hash
    {!prepare} computed, and graphs are compared only within a bucket.
    Callers that run models from {!Mstate.equal} states share a run
    among models of one label (the belief filter and the planner do). *)

val plan_variant : prepared -> prepared
(** The [fork_gates = false] variant of this model (certainty-equivalent
    planning over the gate process), memoized on first use so repeated
    decisions share one analysis. Returns the argument itself when gate
    forking is already off. Not thread-safe: a [prepared] belongs to one
    run, and only that run's domain may call this on it. *)

val run :
  ?until_prio:int ->
  prepared ->
  Mstate.t ->
  sends:(Utc_sim.Timebase.t * Utc_net.Packet.t) list ->
  until:Utc_sim.Timebase.t ->
  outcome list
(** [sends] are the endpoint's transmissions in [(state.now, until]],
    ascending; each enters at the entry of its packet's flow.

    Events at exactly [until] are processed only if their priority class
    is strictly below [until_prio] (default: all of them). A sender waking
    at priority [Evprio.arrival flow] passes that class here so the belief
    stops exactly where the ground-truth engine stood when the wakeup
    handler ran — same-instant cross-traffic arrivals that the engine has
    not yet processed stay pending.
    @raise Invalid_argument on a send before [state.now] or after
    [until]. *)

(** {1 Shared-prefix pricing}

    The planner prices many candidate sends against one baseline: runs
    with sends [pending @ [candidate]] that match the [pending]-only run
    up to the candidate's send and, once the candidate's packet has left
    and its effects have drained, match it again. A {!trace} records the
    baseline once; {!resume} runs a candidate from the baseline's state
    at its send and hands back to the baseline as soon as the two
    converge. Both step with {!run}'s own event handlers, and the result
    is exactly what {!run} returns for [pending @ [candidate]]. *)

type trace
(** A single-branch run of the baseline sends, with the persistent state
    and the delivery count before each event. *)

val trace :
  prepared ->
  Mstate.t ->
  sends:(Utc_sim.Timebase.t * Utc_net.Packet.t) list ->
  until:Utc_sim.Timebase.t ->
  trace option
(** Runs [sends] like [run] (every event at [until] is processed), after
    reserving the event sequence number that [run] would give one more
    send appended to [sends], so every same-instant tie in a resumed run
    breaks as in [run]. [None] if the run forks.
    @raise Invalid_argument as [run]. *)

val trace_deliveries : trace -> delivery array
(** The baseline's deliveries, in [run]'s order. *)

val trace_logw : trace -> float
(** The baseline branch's log-weight: [run] returns one outcome with the
    trace's deliveries and this weight. *)

type resumed =
  | Single of { logw : float; prefix : int; fresh : delivery list; suffix : int }
      (** One outcome of weight [logw] whose deliveries are the trace's
          first [prefix], then [fresh], then the trace's from index
          [suffix] on. *)
  | Forked of outcome list  (** The candidate forked: [run]'s outcomes. *)

val resume : trace -> Utc_sim.Timebase.t * Utc_net.Packet.t -> resumed
(** [resume t send] is [run] with the traced sends followed by [send]. It
    starts from the baseline state just before the first event that
    sorts after [send]'s key [(time, Evprio.arrival flow, reserved)] and steps
    the candidate alone. At each time boundary (its next event is later
    than the last one it handled) it compares its state with the
    baseline's at the same boundary: when node states, pending events
    (sequence numbers ignored, see {!Mstate.converged}) and log-weights
    are equal, the baseline's remaining deliveries are the candidate's.
    If the candidate forks, the search continues as in [run].
    @raise Invalid_argument on a send before the traced state's time or
    after [until]. *)
