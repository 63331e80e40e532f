(** The ISender: the paper's model-based transmission controller (§3.2).

    Two jobs, both delegated: a {!Utc_inference.Belief.t} carries the
    probability distribution over network configurations and is filtered
    on every wakeup with the ACKs observed since; a {!Planner} prices
    "send now" against "sleep until t" on the updated belief and the
    sender acts on the answer. Wakeups happen on every ACK (the receiver
    wakes the sender per packet, §3.4) and on timer expiry; a pending
    timer is superseded when an ACK wakes the sender early.

    A third, optional job is robustness: with [config.recovery] set, a
    {!Recovery} ladder watches the filtering status. After [reseed_after]
    consecutive rejected updates it replaces the collapsed posterior via
    the [reseed] callback (see {!Utc_inference.Belief.reseed}), watermarks
    pre-reseed ACKs out of future updates, and paces conservatively
    (Probing) until the fresh posterior re-concentrates.

    All wakeup work runs at the {!Utc_net.Evprio.endpoint_wakeup} priority
    class so the belief window cuts exactly where the engine stood. *)

type config = {
  flow : Utc_net.Flow.t;
  bits : int;  (** Uniform packet length (§3.2). *)
  planner : Planner.config;
  min_sleep : float;  (** Lower clamp on planned sleeps (default 1 ms). *)
  max_sleep : float;  (** Re-plan at least this often (default 60 s). *)
  burst_cap : int;
      (** Max transmissions in one wakeup instant (safety valve against a
          degenerate plan loop; default 64). *)
  recovery : Recovery.config option;
      (** Enable the misspecification recovery ladder (default [None]:
          rejected updates are only counted and logged, the pre-existing
          behaviour). *)
}

val default_config : config

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

val acked_count : 'p t -> int
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
(** Longest consecutive-rejection streak observed. With recovery enabled
    and reseeds remaining this is bounded by
    {!Recovery.config.reseed_after}. *)

val transitions : 'p t -> (Utc_sim.Timebase.t * Recovery.phase * Recovery.phase) list
(** Recovery-ladder phase transitions, (time, from, to), oldest first. *)

val last_evaluations : 'p t -> Planner.evaluation list
(** Candidate pricing from the most recent planning step. *)

val on_wakeup : 'p t -> (Utc_sim.Timebase.t -> 'p t -> unit) -> unit
(** Hook run after each wakeup's belief update and actions (for
    experiment traces; [t] is passed back for queries). *)
