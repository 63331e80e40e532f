(** Discrete-event simulation engine.

    A clock, an event queue, and a root random-number generator. Events are
    thunks scheduled at absolute simulated times; [run] executes them in
    time order (insertion order within a time) while advancing the clock.

    Cancellation is by token: {!schedule} returns a {!handle} that
    {!cancel} marks dead, and dead events are skipped when popped. This is
    how senders retract a pending timeout when an ACK arrives early. *)

type t

type handle

val create : ?seed:int -> unit -> t
(** [seed] defaults to 1. *)

val now : t -> Timebase.t

val rng : t -> Rng.t
(** The engine's root generator. Elements should use {!Rng.split} on it at
    construction time to obtain private streams. *)

val schedule : ?prio:int -> t -> at:Timebase.t -> (unit -> unit) -> handle
(** Schedule a thunk. [at] must not be in the past ([at >= now]). Among
    events at the same time, lower [prio] (default 0) runs first, then
    insertion order. The shared tie-break classes used by the network
    interpreters live in {!Utc_net.Evprio}. *)

val schedule_after : ?prio:int -> t -> delay:float -> (unit -> unit) -> handle
(** [schedule_after t ~delay f] is [schedule t ~at:(now t +. delay) f];
    [delay] must be non-negative. *)

val cancel : handle -> unit
(** Idempotent; cancelling an already-run event has no effect. *)

val run : ?until:Timebase.t -> t -> unit
(** Execute events in order until the queue is empty or the next event is
    strictly later than [until] (default: run to exhaustion). The clock
    finishes at the last executed event's time, or at [until] if the queue
    still holds later events. *)

(* lint:allow R13 -- perfbench's timed loop steps with it; ROADMAP item 6 drops it *)
val step : t -> bool
(** Execute the single next live event. Returns [false] when the queue is
    exhausted. *)

(* lint:allow R13 -- test_experiments "testbed schedules nothing" counts what Testbed.create schedules *)
val pending : t -> int
(** Number of queued events, including cancelled ones not yet skipped. *)
