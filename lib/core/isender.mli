(** The ISender: the paper's model-based transmission controller (§3.2).

    Two jobs, both delegated: a {!Utc_inference.Belief.t} carries the
    probability distribution over network configurations and is filtered
    on every wakeup with the ACKs observed since; a {!Planner} prices
    "send now" against "sleep until t" on the updated belief and the
    sender acts on the answer. Wakeups happen on every ACK (the receiver
    wakes the sender per packet, §3.4) and on timer expiry; a pending
    timer is superseded when an ACK wakes the sender early.

    The sender sends on {!Utc_net.Flow.Primary}, the one flow the belief
    scores and the utility counts as its own, in packets of
    {!Utc_net.Packet.default_bits} (§3.2's uniform length). A planned
    sleep is clamped to between 1 ms and 60 s, so the sender re-plans at
    least once a minute. One wakeup instant sends at most 64 packets, a
    safety valve against a degenerate plan loop, and then sleeps 1 ms.

    A third, optional job is robustness: with [recovery] set, a
    {!Recovery} ladder watches the filtering status. After
    {!Recovery.reseed_after} consecutive rejected updates it replaces the
    collapsed posterior via the [reseed] callback (see
    {!Utc_inference.Belief.reseed}), watermarks pre-reseed ACKs out of
    future updates, and paces conservatively (Probing) until the fresh
    posterior re-concentrates. Without it (the default) rejected updates
    are only counted and logged.

    All wakeup work runs at the {!Utc_net.Evprio.endpoint_wakeup} priority
    class so the belief window cuts exactly where the engine stood. *)

type config = {
  planner : Planner.config;
  recovery : Recovery.config option;
}

val default_config : config
(** The default planner, without recovery. *)

type 'p t

type 'p decider =
  'p Utc_inference.Belief.t ->
  now:Utc_sim.Timebase.t ->
  pending:(Utc_sim.Timebase.t * Utc_net.Packet.t) list ->
  make_packet:(Utc_sim.Timebase.t -> Utc_net.Packet.t) ->
  Planner.decision * Planner.evaluation list
(** A pluggable decision procedure: from the updated belief, this
    wakeup's so-far-unabsorbed sends and a packet constructor, decide to
    transmit or sleep. The default is {!Planner.decide} with the config's
    planner; a precomputed policy (§3.3) can be substituted. *)

val default_decider : config -> 'p decider
(** The decider {!create} uses when given none: {!Planner.decide} with the
    config's planner and a gross-utility cache of its own. *)

val create :
  ?decide:'p decider ->
  ?reseed:(now:Utc_sim.Timebase.t -> 'p Utc_inference.Belief.t -> 'p Utc_inference.Belief.t) ->
  Utc_sim.Engine.t ->
  config ->
  belief:'p Utc_inference.Belief.t ->
  inject:(Utc_net.Packet.t -> unit) ->
  'p t
(** [inject] hands a packet to the ground-truth network (e.g.
    {!Utc_elements.Runtime.inject}). [reseed] builds the replacement
    belief when the recovery ladder fires — typically
    {!Utc_inference.Belief.reseed} with a re-widened prior; without it a
    fired reseed only logs a warning. Call {!start} to begin. *)

val start : 'p t -> unit
(** Schedule the first wakeup at the engine's current time. *)

val on_ack : 'p t -> Utc_net.Packet.t -> unit
(** The receiver's wake-up: records the acknowledgment at the engine's
    current time and schedules an immediate wakeup (deduplicated, after
    all same-instant network events). Wire via {!Receiver.subscribe}. *)

val stop : 'p t -> unit
(** Cancel any pending wakeup and ignore further ACKs until {!start} is
    called again. *)

(** {1 Introspection} *)

val belief : 'p t -> 'p Utc_inference.Belief.t

val sent : 'p t -> (Utc_sim.Timebase.t * int) list
(** Transmission log: (time, seq), oldest first. *)

val acked : 'p t -> (Utc_sim.Timebase.t * int) list

val sent_count : 'p t -> int
(** O(1). *)

val rejected_updates : 'p t -> int
(** Wakeups where every configuration was inconsistent (model
    misspecification; the belief advanced unconditioned). *)

val stale_acks : 'p t -> int
(** ACKs discarded because they acknowledged pre-reseed sends (below the
    watermark) that the fresh posterior knows nothing about. *)

val last_update_status : 'p t -> Utc_inference.Belief.update_status

val reseeds : 'p t -> int
(** Reseeds fired so far. *)

val max_rejection_streak : 'p t -> int
(** Longest run of consecutive rejected updates. Only wakeups with
    evidence count: a timer wakeup with no ACKs neither extends nor
    clears the run, and a fired reseed clears it. With recovery enabled
    this is bounded by {!Recovery.reseed_after}. *)

val transitions : 'p t -> (Utc_sim.Timebase.t * Recovery.phase * Recovery.phase) list
(** Recovery-ladder phase transitions, (time, from, to), oldest first. *)

val on_wakeup : 'p t -> (Utc_sim.Timebase.t -> 'p t -> unit) -> unit
(** Hook run after each wakeup's belief update and actions (for
    experiment traces; [t] is passed back for queries). *)
