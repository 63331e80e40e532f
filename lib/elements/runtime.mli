(** Ground-truth execution of a compiled network.

    Gives every node of a {!Utc_net.Compiled.t} mutable state on a
    {!Utc_sim.Engine.t}, sampling each element's randomness from a private
    stream split off the engine's generator (so adding an element never
    perturbs another's draws). Pingers self-schedule their isochronous
    emissions starting at time 0; gates and [Either] elements self-schedule
    their switching. Stations run every
    {!Utc_net.Topology.discipline}: FIFO, ARQ, RED and CoDel. This is
    the repository's one packet interpreter of the real network; the
    mean-field backend ({!Fluid}) drives its foreground packets through
    it.

    Simultaneous events follow the canonical order of {!Utc_net.Evprio},
    which the belief-state interpreter ([Utc_model]) mirrors. *)

type drop_reason =
  | Tail_drop
      (** Dropped by a station's queue management: tail drop at a full
          queue, and also every RED and CoDel drop. *)
  | Stochastic_loss
      (** Killed by a [Loss] element, or abandoned by an ARQ station
          after its last retransmission failed. *)
  | Gate_closed  (** Arrived at a disconnected gate. *)

(* lint:allow R13 -- perfbench's faults workload reads it; ROADMAP item 6 drops it *)
val pp_drop_reason : Format.formatter -> drop_reason -> unit

type callbacks = {
  deliver : Utc_net.Flow.t -> Utc_net.Packet.t -> unit;
      (** Packet reached the receiver of its flow, at the engine's now. *)
  on_drop : node_id:int -> reason:drop_reason -> Utc_net.Packet.t -> unit;
  on_queue : node_id:int -> bits:int -> packets:int -> unit;
      (** Station queue occupancy changed (excludes the packet in service). *)
}

val callbacks :
  ?deliver:(Utc_net.Flow.t -> Utc_net.Packet.t -> unit) ->
  ?on_drop:(node_id:int -> reason:drop_reason -> Utc_net.Packet.t -> unit) ->
  ?on_queue:(node_id:int -> bits:int -> packets:int -> unit) ->
  unit ->
  callbacks
(** Any omitted callback is a no-op. *)

type t

val build : Utc_sim.Engine.t -> Utc_net.Compiled.t -> callbacks -> t
(** Instantiate and start the network (pinger emissions and gate toggles
    are scheduled immediately). *)

val inject : t -> Utc_net.Flow.t -> Utc_net.Packet.t -> unit
(** Hand a packet from an [Endpoint] source to the network, at the
    engine's current time.
    @raise Not_found if the flow has no endpoint entry. *)

val compiled : t -> Utc_net.Compiled.t
(** The compiled network this runtime executes. *)

(** {1 Ground-truth perturbation (fault injection)}

    Overrides change the {e real} network mid-run without touching the
    sender's model — the misspecification experiments ({!Faults}) are
    built on them. They are deterministic: a rate override takes effect
    at the next service start (the packet in service finishes at its
    already-scheduled time), a loss override at the next arrival. *)

val set_rate_override : t -> node_id:int -> float option -> unit
(** Replace a station's service rate (bit/s) until cleared with [None].
    @raise Invalid_argument if the node is not a station or the rate is
    not positive. *)

val set_loss_override : t -> node_id:int -> float option -> unit
(** Replace a loss element's drop probability until cleared with [None].
    @raise Invalid_argument if the node is not a loss element or the
    probability is outside [0, 1]. *)

(** {1 Coupling to a fluid population}

    The hybrid mean-field backend ({!Fluid}) shares a FIFO station
    between packets and a fluid background through three terms. All
    three are zero for an uncoupled station. *)

type coupling = {
  arrived : int -> unit;  (** Called with the bits of every packet arriving at the station. *)
  held_bits : unit -> int;
      (** Fluid bits charged against the station's free buffer space. *)
  service_time : bits:int -> rate_bps:float -> float;
      (** Service time of a packet entering service at the current
          (possibly overridden) rate: fluid wait plus the packet at the
          rate the fluid leaves. Replaces [bits / rate_bps]. *)
}

val couple : t -> node_id:int -> coupling -> unit
(** Couple a station; replaces any earlier coupling.
    @raise Invalid_argument if the node is not a FIFO station. *)

(** {1 Introspection (tests and instrumentation)} *)

val queue_bits : t -> node_id:int -> int
(** Queued bits at a station (excluding the packet in service).
    @raise Invalid_argument if the node is not a station. *)

(* lint:allow R13 -- test_elements' "station conserves packets" properties count held packets *)
val queue_packets : t -> node_id:int -> int

(* lint:allow R13 -- test_elements' "station conserves packets" properties count held packets *)
val in_service : t -> node_id:int -> bool

val transmissions : t -> node_id:int -> int
(** Transmission attempts a station has started: one per packet served,
    plus every ARQ retry. *)
