(** Compiled network: the topology AST lowered to an array of nodes.

    Both interpreters execute this form: the ground-truth runtime gives
    each node mutable state and samples its randomness, while the
    belief-state interpreter gives each node persistent state and forks on
    its nondeterminism. Node ids index both interpreters' state arrays, so
    instrumentation and compaction can name "the queue of node 3". *)

type link =
  | To of int  (** Forward to the node with this id. *)
  | Deliver  (** Hand the packet to the receiver of its flow. *)

type gate_kind =
  | Memoryless of { mean_time_to_switch : float; initially_connected : bool }
  | Periodic of { interval : float; initially_connected : bool }

type node =
  | Station of {
      capacity_bits : int option;
      rate_bps : float;
      discipline : Topology.discipline;
      next : link;
    }
  | Delay of { seconds : float; next : link }
  | Loss of { rate : float; next : link }
  | Jitter of { seconds : float; probability : float; next : link }
  | Gate of { kind : gate_kind; next : link }
  | Either of { mean_time_to_switch : float; initially_first : bool; first : link; second : link }
  | Divert of { routes : (Flow.t * link) list; otherwise : link }
  | Multipath of { policy : [ `Round_robin | `Random of float ]; first : link; second : link }

type pinger = { flow : Flow.t; rate_pps : float; size_bits : int; entry : link }

type t = private {
  nodes : node array;
  entries : link option array;
      (** Entry link of each [Endpoint] source, at its flow's {!Flow.rank};
          [None] at a rank no endpoint has. The table ends at the largest
          endpoint rank, so its length follows the largest [Aux] id. *)
  pingers : pinger list;
}

val compile : Topology.t -> (t, string) result
(** Validates, normalizes and lowers. *)

val compile_exn : Topology.t -> t
(** @raise Invalid_argument on a validation error. *)

val entry : t -> Flow.t -> link
(** Entry link for an endpoint flow: one {!Flow.rank} and one array read,
    so the cost does not grow with the number of flows. The runtime
    calls it for every injected packet.
    @raise Not_found if the flow has no [Endpoint] source. *)

val node : t -> int -> node

val node_count : t -> int

val station_ids : t -> int list
(** Ids of all [Station] nodes, in id order; instrumentation targets. *)

val pp : Format.formatter -> t -> unit
(** Nodes in id order, then endpoint entries in rank order, then
    pingers in source order. *)
