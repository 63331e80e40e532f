(** Persistent state of one hypothesized network configuration.

    Where the ground-truth runtime holds mutable queues on an engine, a
    hypothesis holds an immutable snapshot: per-node states, the pending
    future events (packets in flight, the next pinger emission, gate
    epochs), and the hypothesis' current time. Forking a configuration is
    O(1) sharing; {!equal} and {!hash} give the identity under which
    configurations that have converged back to the same state compact
    into one (paper §3.2). *)

type mpkt = { pkt : Utc_net.Packet.t; trail : int list }
(** A packet in flight, carrying the node ids of the likelihood-mode
    [Loss] elements it crossed so far, newest first. Its survival
    probability is not stored: {!Forward.survive_p} folds the rates of
    the model that runs it over the trail, so models that differ only in
    those rates run the same states. *)

type station = {
  queue : mpkt Utc_sim.Fqueue.t;
  queued_bits : int;
  in_service : (mpkt * Utc_sim.Timebase.t) option;
      (** The packet being transmitted and its completion time. *)
}

type nstate =
  | MStation of station
  | MGate of { connected : bool }
  | MEither of { on_first : bool }
  | MMultipath of { next_first : bool }
  | MStateless

(** Scheduled future happenings inside the hypothesis. *)
type pev =
  | Arrive of Utc_net.Compiled.link * mpkt
  | Complete of int  (** Station [id] finishes its packet in service. *)
  | Pinger_emit of int * int  (** Pinger index, emission number. *)
  | Gate_epoch of int  (** Memoryless gate/either decision epoch (forks). *)
  | Gate_toggle of int * int  (** Periodic gate, toggle number. *)

type event = { time : Utc_sim.Timebase.t; prio : int; seq : int; ev : pev }

type t = {
  now : Utc_sim.Timebase.t;
  origin : Utc_sim.Timebase.t;
      (** Time zero of the pinger and periodic-gate clocks: emission [k]
          of a pinger is due at [origin + k / rate_pps] and toggle [k] of
          a periodic gate at [origin + k * interval]. [0.] from
          {!initial}; re-anchoring a state at a later time moves it. *)
  nodes : nstate array;
  pending : event list;  (** Ascending by [(time, prio, seq)]. *)
  next_seq : int;
}

val initial :
  ?prefill:(int * Utc_net.Packet.t list) list ->
  epoch:float ->
  Utc_net.Compiled.t ->
  t
(** State at time 0: pingers scheduled from emission 0, periodic gates
    from toggle 1, memoryless gates and [Either]s given a first decision
    epoch at [epoch]. [prefill] seeds station queues (modeling the §4
    "initial fullness"): the first listed packet is already in service,
    the rest are queued. *)

val insert : t -> at:Utc_sim.Timebase.t -> prio:int -> pev -> t
(** Insert a future event (keeps [pending] sorted). *)

val insert_reserved : t -> seq:int -> at:Utc_sim.Timebase.t -> prio:int -> pev -> t
(** Insert a future event under a sequence number set aside earlier
    (below [next_seq], held by no pending event); [next_seq] is
    unchanged. *)

val set_node : t -> int -> nstate -> t

val set_node_insert : t -> int -> nstate -> at:Utc_sim.Timebase.t -> prio:int -> pev -> t
(** [set_node_insert t id nstate ~at ~prio ev] is
    [insert (set_node t id nstate) ~at ~prio ev], built as one state
    record. *)

val station : t -> int -> station
(** @raise Invalid_argument if the node is not a station. *)

val station_bits : t -> int -> int
(** Queued bits plus the packet in service, the "fullness" a sender
    reasons about. *)

val gate_connected : t -> int -> bool

val converged : t -> t -> bool
(** The two states have the same [origin], bit-identical node states and
    the same pending events in the same order, ignoring [now] and event
    sequence numbers. Packets compare by flow, sequence number, size,
    send time and trail, so two packets that crossed different
    likelihood-mode losses differ even when their survival
    probabilities are equal. Every event either state inserts from here
    on takes a sequence number above all of its pending ones, so two
    converged states process the same events in the same order from
    here on. Allocates nothing. *)

val equal : t -> t -> bool
(** [converged] and the same [now], bit for bit: the identity under
    which the belief filter compacts configurations (paper §3.2). Which
    float boxes the two states happen to share plays no part. Allocates
    nothing. *)

val hash : t -> int
(** Agrees with {!equal}: [equal a b] implies [hash a = hash b]. It
    covers [now], node scalars, the packet in service and its
    completion time, each pending event's time, priority and tag, and
    the flow and sequence number of every queued or in-flight packet.
    A queue contributes a sum over its packets, so queues holding the
    same packets hash equal whatever their push/pop histories.
    Allocates nothing. *)

(** {1 Bit identity}

    The comparisons {!converged} and {!hash} are built from, shared with
    the dynamics identity of {!Forward} and the belief's compaction. *)

val same_float : float -> float -> bool
(** Equal bits. Unlike [Float.equal], [0.] and [-0.] differ. *)

val same_packet : Utc_net.Packet.t -> Utc_net.Packet.t -> bool
(** Same sequence number, flow, size and send time (bits). *)

val same_trail : int list -> int list -> bool
(** Same likelihood-mode losses, in the same order. *)

val same_link : Utc_net.Compiled.link -> Utc_net.Compiled.link -> bool

val mix : int -> int -> int
(** One step of the hash fold: mixes [x] into [h], folding the high bits
    down so that a power-of-two table indexed by the low bits sees
    them. *)

val canonical : t -> string
(** A byte string equal for two states when they are observationally
    identical: event sequence numbers are renumbered in order and queues
    flattened, so histories that converged compare equal. The bytes also
    record which float boxes the state shares (an in-service completion
    time and its [Complete] event's time may or may not be one box), so
    two states can satisfy {!equal} with different strings. It serves as
    the planner cache's digest, as the parallel benchmark's fingerprint
    and in tests; compaction uses {!equal} and {!hash}. *)
