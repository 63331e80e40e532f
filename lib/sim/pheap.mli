(** Mutable binary min-heap keyed by [(time, prio, tie)].

    The event queue of the discrete-event engine. Ties on time are broken
    first by an explicit priority class (lower runs first) and then by an
    insertion sequence number, so that simultaneous events run in a
    deterministic order that the belief-state interpreter can mirror
    exactly (e.g. service completions before packet arrivals). *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val add : ?prio:int -> 'a t -> time:Timebase.t -> 'a -> unit
(** Insert with the next tie-break sequence number. [prio] defaults to 0;
    lower priorities run earlier among equal times. *)

val top_time : 'a t -> Timebase.t
(** Earliest key, without removing it. Raises [Invalid_argument] when the
    heap is empty; with {!top_payload} and {!drop_top} this is the
    allocation-free alternative to {!pop} for the engine loop. *)

val top_payload : 'a t -> 'a
(** Payload at the earliest key. Raises [Invalid_argument] when empty. *)

val drop_top : 'a t -> unit
(** Remove the element at the earliest key without returning it. Raises
    [Invalid_argument] when empty. *)

(* lint:allow R13 -- perfbench's heap kernel reads it; ROADMAP item 6 drops it *)
val pop : 'a t -> (Timebase.t * 'a) option
(** Remove and return the element with the smallest [(time, tie)] key. *)
