(** Instrumentation hub: receivers and drop log.

    The paper's RECEIVER "accumulates packets and wakes up the SENDER for
    each one" (§3.4). This hub plays every flow's receiver at once: it
    produces the {!Utc_elements.Runtime.callbacks} for a ground-truth
    network, records all deliveries and drops, and lets senders subscribe
    to their flow's deliveries — the instant, lossless acknowledgment
    path of the paper's preliminary setup. It keeps no queue history: a
    report that needs a station's occupancy registers an observer for
    that station with {!watch_queue} before the run.

    Subscribers, delivery logs and delivery counts are kept per flow, in
    arrays indexed by {!Utc_net.Flow.rank}. A delivery costs one index
    whatever the number of flows, and the per-flow queries cost
    O(that flow's deliveries), not O(every delivery). Every flow a
    {!Utc_net.Topology.validate}d network delivers has a rank. *)

type t

val create : Utc_sim.Engine.t -> t

val callbacks : t -> Utc_elements.Runtime.callbacks
(** Pass to {!Utc_elements.Runtime.build}. *)

val subscribe : t -> Utc_net.Flow.t -> (Utc_sim.Timebase.t -> Utc_net.Packet.t -> unit) -> unit
(** Called synchronously on each delivery of the flow (the wake-up),
    after the delivery is logged. Several subscribers to one flow run in
    subscription order.
    @raise Invalid_argument if the flow has no {!Utc_net.Flow.rank} (so
    do the {!callbacks}' [deliver] on a packet of such a flow). *)

val deliveries : t -> Utc_net.Flow.t -> (Utc_sim.Timebase.t * Utc_net.Packet.t) list
(** Oldest first; O(the flow's deliveries). *)

val delivered_count : t -> Utc_net.Flow.t -> int
(** O(1). *)

val drops :
  t ->
  (Utc_sim.Timebase.t * int * Utc_elements.Runtime.drop_reason * Utc_net.Packet.t) list
(** Oldest first: time, node id, reason, packet. *)

val watch_queue : t -> node_id:int -> (Utc_sim.Timebase.t -> int -> unit) -> unit
(** [watch_queue t ~node_id f] calls [f now bits] at each later change of
    the station's queue occupancy, with the engine's time and the queued
    bits (excluding the packet in service). Several observers run in
    registration order. With none registered, a queue change costs
    nothing and the hub keeps no per-station state. *)

val throughput : t -> Utc_net.Flow.t -> since:Utc_sim.Timebase.t -> until:Utc_sim.Timebase.t -> float
(** Delivered bits per second of the flow over the closed window
    [\[since, until\]]; 0 for an empty or reversed window. O(the flow's
    deliveries). *)
