open Utc_net
module Engine = Utc_sim.Engine
module Runtime = Utc_elements.Runtime

type subscriber = Utc_sim.Timebase.t -> Packet.t -> unit

(* Per-flow state lives in arrays indexed by [Flow.rank], all of one
   length, grown together the first time a flow past their end is
   delivered or subscribed to. *)
type t = {
  engine : Engine.t;
  mutable subscribers : subscriber list array; (* subscription order *)
  mutable logs : (Utc_sim.Timebase.t * Packet.t) list array; (* newest first *)
  mutable counts : int array;
  mutable drops : (Utc_sim.Timebase.t * int * Runtime.drop_reason * Packet.t) list;
  mutable queue_watchers : (int * (Utc_sim.Timebase.t -> int -> unit)) list;
      (* (station, observer), registration order *)
}

let create engine =
  { engine; subscribers = [||]; logs = [||]; counts = [||]; drops = []; queue_watchers = [] }

(* The rank of [flow], with the arrays grown to hold it. *)
let slot t flow =
  let rank = Flow.rank flow in
  if rank < 0 then
    invalid_arg (Format.asprintf "Receiver: flow %a has no rank" Flow.pp flow);
  let length = Array.length t.counts in
  if rank >= length then begin
    let grown = Int.max (rank + 1) (2 * length) in
    let grow arr fill =
      let next = Array.make grown fill in
      Array.blit arr 0 next 0 length;
      next
    in
    t.subscribers <- grow t.subscribers [];
    t.logs <- grow t.logs [];
    t.counts <- grow t.counts 0
  end;
  rank

(* The rank of [flow] if the arrays hold it; -1 otherwise. *)
let held t flow =
  let rank = Flow.rank flow in
  if rank < Array.length t.counts then rank else -1

let subscribe t flow f =
  let rank = slot t flow in
  t.subscribers.(rank) <- t.subscribers.(rank) @ [ f ]

let watch_queue t ~node_id f = t.queue_watchers <- t.queue_watchers @ [ (node_id, f) ]

let rec notify now pkt = function
  | [] -> ()
  | f :: rest ->
    f now pkt;
    notify now pkt rest

let rec notify_queue now node_id bits = function
  | [] -> ()
  | (id, f) :: rest ->
    if id = node_id then f now bits;
    notify_queue now node_id bits rest

let callbacks t =
  let deliver flow pkt =
    let now = Engine.now t.engine in
    let logged = slot t pkt.Packet.flow in
    t.logs.(logged) <- (now, pkt) :: t.logs.(logged);
    t.counts.(logged) <- t.counts.(logged) + 1;
    let subscribed = held t flow in
    if subscribed >= 0 then notify now pkt t.subscribers.(subscribed)
  in
  let on_drop ~node_id ~reason pkt =
    t.drops <- (Engine.now t.engine, node_id, reason, pkt) :: t.drops
  in
  (* With no observer, a queue change reads no clock and allocates
     nothing: it runs at every enqueue and dequeue. *)
  let on_queue ~node_id ~bits ~packets:_ =
    match t.queue_watchers with
    | [] -> ()
    | watchers -> notify_queue (Engine.now t.engine) node_id bits watchers
  in
  Runtime.callbacks ~deliver ~on_drop ~on_queue ()

let log t flow =
  let rank = held t flow in
  if rank < 0 then [] else t.logs.(rank)

let deliveries t flow = List.rev (log t flow)

let delivered_count t flow =
  let rank = held t flow in
  if rank < 0 then 0 else t.counts.(rank)

let drops t = List.rev t.drops

let throughput t flow ~since ~until =
  let span = until -. since in
  if span <= 0.0 then 0.0
  else begin
    let bits =
      List.fold_left
        (fun acc (time, pkt) ->
          if Utc_sim.Timebase.( >=. ) time since && Utc_sim.Timebase.( <=. ) time until then
            acc + pkt.Packet.bits
          else acc)
        0 (log t flow)
    in
    float_of_int bits /. span
  end
