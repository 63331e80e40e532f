(** The language of network elements (paper §3.1).

    A network description is a set of {e sources} (endpoints and PINGERs),
    each reaching the shared path through its own access elements, plus the
    shared path itself. Packets leaving the end of the path are delivered to
    the receiver of their flow (the paper's RECEIVER elements); a
    {!constructor-Diverter} can split flows onto different sub-paths first.

    The same description is executed by two interpreters: the stochastic
    ground-truth runtime ([Utc_elements]) and the deterministic forking
    belief-state interpreter ([Utc_model]). *)

(** How a station serves its queue. Every discipline drains at the
    station's rate and tail-drops an arrival that would overfill its
    capacity; [Fifo] does nothing more, and the others add:

    - [Arq]: link-layer retransmission hiding radio loss (§1, §2). Each
      attempt fails independently with [try_loss], and the link retries
      up to 100 times, so a packet occupies the link for
      [tries * (bits / rate + per_try_overhead)] and is lost only after
      100 failed attempts.
    - [Red]: random early detection (Floyd & Jacobson 1993) at fixed
      settings: thresholds at 25 % and 75 % of capacity, drop probability
      0.1 at the upper threshold, averaging weight 0.002. Needs a
      capacity.
    - [Codel]: CoDel (Nichols & Jacobson 2012) at a 5 ms target and a
      100 ms interval, dropping at dequeue while the standing sojourn
      time stays above target.

    AQM is the element the paper's §3.5 names as missing. Only the
    ground-truth runtime executes [Arq], [Red] and [Codel]; the
    belief-state interpreter models [Fifo] stations only. *)
type discipline =
  | Fifo
  | Arq of { try_loss : float; per_try_overhead : float }
  | Red
  | Codel

type element =
  | Buffer of { capacity_bits : int }
      (** Tail-drop queue: an arriving packet that does not fit is dropped. *)
  | Throughput of { rate_bps : float }
      (** Link serving one packet at a time at [rate_bps]. *)
  | Station of { capacity_bits : int option; rate_bps : float; discipline : discipline }
      (** Fused [Buffer]+[Throughput]: a queue with optional tail-drop
          capacity drained at [rate_bps] under [discipline]. {!normalize}
          produces [Fifo] stations; a station may also be used directly. *)
  | Delay of { seconds : float }  (** Fixed propagation delay. *)
  | Loss of { rate : float }
      (** Independent stochastic loss of each packet with probability
          [rate]. *)
  | Jitter of { seconds : float; probability : float }
      (** Adds [seconds] of delay to each packet independently with the
          given probability. *)
  | Intermittent of { mean_time_to_switch : float; initially_connected : bool }
      (** Passes packets only while connected; toggles according to a
          memoryless process with the given mean time between switches.
          Packets arriving while disconnected are dropped. *)
  | Squarewave of { interval : float; initially_connected : bool }
      (** Deterministic toggle every [interval] seconds. *)
  | Series of element list  (** Output of each element feeds the next. *)
  | Diverter of { routes : (Flow.t * element) list; otherwise : element }
      (** Routes packets of a listed flow to that element, all other
          traffic to [otherwise]. *)
  | Either of {
      first : element;
      second : element;
      mean_time_to_switch : float;
      initially_first : bool;
    }
      (** Sends traffic to one of two elements, switching memorylessly. *)
  | Multipath of {
      first : element;
      second : element;
      policy : [ `Round_robin | `Random of float ];
    }
      (** Intra-flow multipath (§3.5): splits packets across two
          sub-paths, alternately ([`Round_robin]) or independently at
          random ([`Random p] = probability of the first path). Sub-paths
          with different delays reorder packets. *)
  | Deliver
      (** Terminal: hand the packet to the receiver of its flow. Implicit
          at the end of every path. *)

type source =
  | Endpoint of { flow : Flow.t; access : element }
      (** An externally driven sender (ISender, TCP sender, ...). *)
  | Pinger of { flow : Flow.t; rate_pps : float; size_bits : int; access : element }
      (** Isochronous source of cross traffic: emits a [size_bits]-bit
          packet every [1/rate_pps] seconds, starting at time 0, into its
          access path. *)

type t = { sources : source list; shared : element }

(** {1 Construction helpers} *)

val series : element list -> element
val buffer : capacity_bits:int -> element
val throughput : rate_bps:float -> element
val station : ?capacity_bits:int -> ?discipline:discipline -> rate_bps:float -> unit -> element
(** [discipline] defaults to [Fifo]. *)

val delay : seconds:float -> element
val loss : rate:float -> element
val jitter : seconds:float -> probability:float -> element
val intermittent : ?initially_connected:bool -> mean_time_to_switch:float -> unit -> element
val squarewave : ?initially_connected:bool -> interval:float -> unit -> element

val multipath :
  ?policy:[ `Round_robin | `Random of float ] -> first:element -> second:element -> unit -> element

val endpoint : ?access:element -> Flow.t -> source
val pinger : ?access:element -> ?size_bits:int -> flow:Flow.t -> rate_pps:float -> unit -> source

val figure2 :
  link_bps:float ->
  buffer_bits:int ->
  loss_rate:float ->
  pinger_pps:float ->
  cross_gate:element ->
  t
(** The network of the paper's Figure 2: an [Endpoint Primary] and a
    [Pinger Cross] gated by [cross_gate] (an [Intermittent] in the
    sender's model, a [Squarewave] in the §4 ground truth) merging into a
    shared tail-drop buffer drained by a throughput-limited link, followed
    by last-mile stochastic loss, then delivery to per-flow receivers. *)

(** {1 Analysis} *)

val validate : t -> (unit, string) result
(** Checks parameter ranges: positive rates, capacities and intervals,
    probabilities within [0, 1], an ARQ per-try loss within [0, 1) and a
    non-negative per-try overhead, a capacity on every RED station, at
    least one source, no duplicate source flows, a {!Flow.rank} for every
    source flow (so no negative [Aux] id: entry tables and receivers index
    by it), packets of a pinger fit its buffers, and [Series]
    non-emptiness is not required (an empty series is the identity). *)

val normalize : t -> t
(** Rewrites [Series (... Buffer; Throughput ...)] adjacencies into fused
    {!constructor-Station}s, a bare [Throughput] into an unbounded-queue
    station, and flattens nested [Series]. A bare [Buffer] (no throughput
    limit behind it) never fills and is dropped. Normalization is
    idempotent and preserves semantics. *)

val pp_discipline : Format.formatter -> discipline -> unit

val pp : Format.formatter -> t -> unit
