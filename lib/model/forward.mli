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
      recommends) multiplies each delivery's [survive_p] instead of
      forking — mathematically identical, exponentially cheaper. A [Loss]
      in front of a queue always forks, whatever [loss_mode] says, because
      its consequences linger.
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
          is discarded (its mass is lost; callers renormalize). *)
}

val default_config : config
(** Likelihood losses, forking gates, 1 s epochs, 1024 branches. *)

type delivery = {
  time : Utc_sim.Timebase.t;
  packet : Utc_net.Packet.t;
  survive_p : float;
      (** Probability the delivery really happened, given last-mile
          losses. 1 for fork-mode branches. *)
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

val config_of : prepared -> config
val compiled_of : prepared -> Utc_net.Compiled.t

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
