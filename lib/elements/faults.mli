(** Deterministic mid-run fault injection against the ground truth.

    The sender's explicit model (§3.2) is only as good as its prior; this
    module manufactures the situation the paper leaves open in §3.5 —
    {e reality is not in the model} — by perturbing the real network
    mid-run in ways no static hypothesis describes: a link-rate flap, a
    loss-probability burst, and acknowledgment-path faults (drop, delay,
    duplicate) that break the §3.4 "instant lossless return path"
    assumption.

    A schedule is a list of faults, each active over a half-open window
    [[from_, until)]. Node faults act through the {!Runtime} override
    hooks; ack faults act through {!wrap_ack}, interposed between the
    receiver's delivery callback and the sender's [on_ack]. All
    randomness comes from a private generator seeded at {!arm}, so a run
    is replayable bit-exactly from [(seed, schedule)] given the same
    underlying simulation. *)

type spec =
  | Rate_flap of { station : int option; factor : float }
      (** Multiply a station's service rate by [factor] ([None] targets
          the first station). *)
  | Loss_burst of { node : int option; rate : float }
      (** Replace a loss element's drop probability ([None] targets the
          first loss element). *)
  | Ack_drop of { p : float }  (** Eat each acknowledgment with probability [p]. *)
  | Ack_delay of { seconds : float }  (** Defer every acknowledgment by [seconds]. *)
  | Ack_duplicate of { p : float; delay : float }
      (** With probability [p], deliver a second copy [delay] seconds
          after the (possibly delayed) original. *)

type fault = { from_ : float; until : float; spec : spec }

type t

val arm : Utc_sim.Engine.t -> Runtime.t -> seed:int -> fault list -> t
(** Validate the schedule and queue its window transitions on the engine
    (at {!Utc_net.Evprio.gate_toggle} priority, the network-reconfiguration
    class). Call before running the engine.
    @raise Invalid_argument on an empty-window fault, an out-of-range
    parameter, a missing target node, or two overlapping windows steering
    the same node or ack channel. *)

val wrap_ack :
  t ->
  (Utc_sim.Timebase.t -> Utc_net.Packet.t -> unit) ->
  Utc_sim.Timebase.t ->
  Utc_net.Packet.t ->
  unit
(** [wrap_ack t inner] is the faulted acknowledgment path: subscribe it
    in place of [inner]. Active faults compose as drop, then delay, then
    duplicate. *)

val dropped_acks : t -> int
(** Acknowledgments eaten by {!Ack_drop} so far. *)
