(** A seeded ground-truth network with its receiver hub, and the senders
    attached to it.

    Every experiment and example runs the same wiring: a seeded engine,
    a {!Utc_core.Receiver} that logs deliveries, drops and queue
    occupancy, the ground truth compiled and built into a
    {!Utc_elements.Runtime} that reports to it, and senders that inject
    into the runtime on their flow and hear their flow's deliveries.
    {!create} builds the network; {!isender} and {!tcp} attach a sender.

    Neither schedules an event nor draws from the engine's RNG: after
    {!create} and any number of attaches, the engine holds exactly what
    {!Utc_elements.Runtime.build} scheduled, so every later event keeps
    its sequence number and random draw. A sender starts only when its
    own [start] is called. *)

type t = {
  engine : Utc_sim.Engine.t;
  receiver : Utc_core.Receiver.t;
  compiled : Utc_net.Compiled.t;  (** The compiled ground truth. *)
  runtime : Utc_elements.Runtime.t;
}

val create : seed:int -> Utc_net.Topology.t -> t
(** Engine seeded with [seed], then the receiver, then the compiled
    truth built into a runtime that reports to the receiver.
    @raise Invalid_argument if the topology does not compile. *)

val isender :
  ?decide:'p Utc_core.Isender.decider ->
  ?reseed:
    (now:Utc_sim.Timebase.t -> 'p Utc_inference.Belief.t -> 'p Utc_inference.Belief.t) ->
  t ->
  Utc_core.Isender.config ->
  belief:'p Utc_inference.Belief.t ->
  'p Utc_core.Isender.t
(** {!Utc_core.Isender.create} injecting on {!Utc_net.Flow.Primary}, the
    ISender's flow, subscribed to that flow's deliveries. *)

val tcp : t -> Utc_tcp.Sender.config -> Utc_tcp.Sender.t
(** {!Utc_tcp.Sender.create} injecting on [config.flow], subscribed to
    that flow's deliveries. *)
