open Utc_net
module Tb = Utc_sim.Timebase
module Fqueue = Utc_sim.Fqueue

type mpkt = { pkt : Packet.t; trail : int list }

type station = {
  queue : mpkt Fqueue.t;
  queued_bits : int;
  in_service : (mpkt * Tb.t) option;
}

type nstate =
  | MStation of station
  | MGate of { connected : bool }
  | MEither of { on_first : bool }
  | MMultipath of { next_first : bool }
  | MStateless

type pev =
  | Arrive of Compiled.link * mpkt
  | Complete of int
  | Pinger_emit of int * int
  | Gate_epoch of int
  | Gate_toggle of int * int

type event = { time : Tb.t; prio : int; seq : int; ev : pev }

type t = {
  now : Tb.t;
  origin : Tb.t;
  nodes : nstate array;
  pending : event list;
  next_seq : int;
}

let event_le a b =
  let c = Tb.compare a.time b.time in
  if c <> 0 then c < 0
  else begin
    let c = Int.compare a.prio b.prio in
    if c <> 0 then c < 0 else a.seq <= b.seq
  end

(* A top-level recursion, so placing an event allocates only the cells
   in front of it. *)
let rec place event = function
  | [] -> [ event ]
  | head :: tail as pending ->
    if event_le head event then head :: place event tail else event :: pending

let insert t ~at ~prio ev =
  let event = { time = at; prio; seq = t.next_seq; ev } in
  { t with pending = place event t.pending; next_seq = t.next_seq + 1 }

let insert_reserved t ~seq ~at ~prio ev =
  { t with pending = place { time = at; prio; seq; ev } t.pending }

let with_node nodes id nstate =
  let nodes = Array.copy nodes in
  nodes.(id) <- nstate;
  nodes

let set_node t id nstate = { t with nodes = with_node t.nodes id nstate }

let set_node_insert t id nstate ~at ~prio ev =
  let event = { time = at; prio; seq = t.next_seq; ev } in
  {
    t with
    nodes = with_node t.nodes id nstate;
    pending = place event t.pending;
    next_seq = t.next_seq + 1;
  }

let station t id =
  match t.nodes.(id) with
  | MStation s -> s
  | MGate _ | MEither _ | MMultipath _ | MStateless -> invalid_arg "Mstate.station: node is not a station"

let station_bits t id =
  let s = station t id in
  let in_service =
    match s.in_service with
    | None -> 0
    | Some (mpkt, _) -> mpkt.pkt.Packet.bits
  in
  s.queued_bits + in_service

let gate_connected t id =
  match t.nodes.(id) with
  | MGate g -> g.connected
  | MStation _ | MEither _ | MMultipath _ | MStateless -> invalid_arg "Mstate.gate_connected: node is not a gate"

let initial ?(prefill = []) ~epoch compiled =
  let nodes =
    Array.init (Compiled.node_count compiled) (fun id ->
        match Compiled.node compiled id with
        | Station _ -> MStation { queue = Fqueue.empty; queued_bits = 0; in_service = None }
        | Gate { kind = Memoryless { initially_connected; _ }; _ }
        | Gate { kind = Periodic { initially_connected; _ }; _ } ->
          MGate { connected = initially_connected }
        | Either { initially_first; _ } -> MEither { on_first = initially_first }
        | Multipath _ -> MMultipath { next_first = true }
        | Delay _ | Loss _ | Jitter _ | Divert _ -> MStateless)
  in
  let t = { now = Tb.zero; origin = Tb.zero; nodes; pending = []; next_seq = 0 } in
  (* Pingers: first emission at time 0. *)
  let t, _ =
    List.fold_left
      (fun (t, i) (p : Compiled.pinger) ->
        (insert t ~at:Tb.zero ~prio:(Evprio.arrival p.flow) (Pinger_emit (i, 0)), i + 1))
      (t, 0) compiled.Compiled.pingers
  in
  (* Gates and Eithers: their clocks. *)
  let t = ref t in
  Array.iteri
    (fun id n ->
      match (n : Compiled.node) with
      | Gate { kind = Periodic { interval; _ }; _ } ->
        t := insert !t ~at:interval ~prio:Evprio.gate_toggle (Gate_toggle (id, 1))
      | Gate { kind = Memoryless _; _ } | Either _ ->
        t := insert !t ~at:epoch ~prio:Evprio.gate_toggle (Gate_epoch id)
      | Station _ | Delay _ | Loss _ | Jitter _ | Divert _ | Multipath _ -> ())
    compiled.Compiled.nodes;
  (* Prefill: the first packet is in service from time 0. *)
  let prefill_station t (id, packets) =
    match packets with
    | [] -> t
    | head :: rest ->
      let rate =
        match Compiled.node compiled id with
        | Station { rate_bps; _ } -> rate_bps
        | Delay _ | Loss _ | Jitter _ | Gate _ | Either _ | Divert _ | Multipath _ ->
          invalid_arg "Mstate.initial: prefill target is not a station"
      in
      let head_mpkt = { pkt = head; trail = [] } in
      let completion = float_of_int head.Packet.bits /. rate in
      let rest_mpkts = List.map (fun pkt -> { pkt; trail = [] }) rest in
      let queued_bits = List.fold_left (fun acc m -> acc + m.pkt.Packet.bits) 0 rest_mpkts in
      let s =
        {
          queue = Fqueue.of_list rest_mpkts;
          queued_bits;
          in_service = Some (head_mpkt, completion);
        }
      in
      set_node_insert t id (MStation s) ~at:completion ~prio:Evprio.service_complete (Complete id)
  in
  List.fold_left prefill_station !t prefill

(* --- convergence --- *)

(* Floats compare by their bits, so "converged" means bit-identical. *)
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_packet (a : Packet.t) (b : Packet.t) =
  a == b
  || a.Packet.seq = b.Packet.seq
     && Flow.equal a.Packet.flow b.Packet.flow
     && a.Packet.bits = b.Packet.bits
     && same_float a.Packet.sent_at b.Packet.sent_at

let rec same_trail a b =
  a == b
  ||
  match a, b with
  | x :: a, y :: b -> x = y && same_trail a b
  | [], _ :: _ | _ :: _, [] -> false
  | [], [] -> true

let same_mpkt a b = a == b || (same_packet a.pkt b.pkt && same_trail a.trail b.trail)

let same_link (a : Compiled.link) (b : Compiled.link) =
  match a, b with
  | To x, To y -> x = y
  | Deliver, Deliver -> true
  | To _, Deliver | Deliver, To _ -> false

let same_pev a b =
  match a, b with
  | Arrive (la, ma), Arrive (lb, mb) -> same_link la lb && same_mpkt ma mb
  | Complete x, Complete y | Gate_epoch x, Gate_epoch y -> x = y
  | Pinger_emit (i, k), Pinger_emit (j, l) | Gate_toggle (i, k), Gate_toggle (j, l) ->
    i = j && k = l
  | (Arrive _ | Complete _ | Pinger_emit _ | Gate_epoch _ | Gate_toggle _), _ -> false

let same_station a b =
  a == b
  || a.queued_bits = b.queued_bits
     && (match a.in_service, b.in_service with
        | None, None -> true
        | Some (ma, ta), Some (mb, tb) -> same_float ta tb && same_mpkt ma mb
        | Some _, None | None, Some _ -> false)
     && Fqueue.equal same_mpkt a.queue b.queue

let same_nstate a b =
  a == b
  ||
  match a, b with
  | MStation x, MStation y -> same_station x y
  | MGate x, MGate y -> Bool.equal x.connected y.connected
  | MEither x, MEither y -> Bool.equal x.on_first y.on_first
  | MMultipath x, MMultipath y -> Bool.equal x.next_first y.next_first
  | MStateless, MStateless -> true
  | (MStation _ | MGate _ | MEither _ | MMultipath _ | MStateless), _ -> false

(* Top-level recursions, so a comparison allocates no closure: the
   planner's resume compares states at every time boundary. *)
let rec same_pending xs ys =
  xs == ys
  ||
  match xs, ys with
  | [], [] -> true
  | x :: xs, y :: ys ->
    same_float x.time y.time && x.prio = y.prio && same_pev x.ev y.ev && same_pending xs ys
  | [], _ :: _ | _ :: _, [] -> false

let rec same_nodes a b i = i >= Array.length a || (same_nstate a.(i) b.(i) && same_nodes a b (i + 1))

(* lint:hotpath -- the planner's resume calls it at every time boundary *)
let converged a b =
  same_float a.origin b.origin
  && Array.length a.nodes = Array.length b.nodes
  && same_pending a.pending b.pending
  && same_nodes a.nodes b.nodes 0

let equal a b = same_float a.now b.now && converged a b

(* --- structural hash --- *)

(* [hash] reads a subset of what [equal] compares, so equal states hash
   equal; nothing here allocates. Each step folds the high bits back
   down, because callers index power-of-two tables by the low bits and
   float times often differ only in their high bits. *)
let mix h x =
  let h = (h lxor x) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let float_bits x = Int64.to_int (Int64.bits_of_float x)

(* Packet identity: every packet has the same size, so its flow and
   sequence number are what tell two queues apart. *)
let packet_hash m = mix (Flow.hash m.pkt.Packet.flow) m.pkt.Packet.seq

let hash_node h = function
  | MStation s ->
    let h = mix h s.queued_bits in
    let h =
      match s.in_service with
      | None -> mix h 0
      | Some (m, completion) -> mix (mix h (float_bits completion)) (packet_hash m)
    in
    (* A sum, so the queue's front/back split cannot change it. *)
    mix h (Fqueue.sum packet_hash s.queue)
  | MGate g -> mix h (Bool.to_int g.connected)
  | MEither e -> mix h (Bool.to_int e.on_first)
  | MMultipath m -> mix h (Bool.to_int m.next_first)
  | MStateless -> h

let hash_pev h = function
  | Arrive (To id, m) -> mix (mix (mix h 0) id) (packet_hash m)
  | Arrive (Deliver, m) -> mix (mix h 1) (packet_hash m)
  | Complete id -> mix (mix h 2) id
  | Pinger_emit (i, k) -> mix (mix (mix h 3) i) k
  | Gate_epoch id -> mix (mix h 4) id
  | Gate_toggle (id, k) -> mix (mix (mix h 5) id) k

let rec hash_pending h = function
  | [] -> h
  | e :: rest -> hash_pending (hash_pev (mix (mix h (float_bits e.time)) e.prio) e.ev) rest

let hash t = hash_pending (Array.fold_left hash_node (float_bits t.now) t.nodes) t.pending

(* --- canonical form --- *)

type canon_station = {
  c_queue : mpkt list;
  c_queued_bits : int;
  c_in_service : (mpkt * Tb.t) option;
}

type canon_nstate =
  | CStation of canon_station
  | CGate of bool
  | CEither of bool
  | CMultipath of bool
  | CStateless

type canon = {
  c_now : Tb.t;
  c_origin : Tb.t;
  c_nodes : canon_nstate list;
  c_pending : (Tb.t * int * int * pev) list; (* seq renumbered in order *)
}

let canonical t =
  let canon_node = function
    | MStation s ->
      CStation
        {
          c_queue = Fqueue.to_list s.queue;
          c_queued_bits = s.queued_bits;
          c_in_service = s.in_service;
        }
    | MGate g -> CGate g.connected
    | MEither e -> CEither e.on_first
    | MMultipath m -> CMultipath m.next_first
    | MStateless -> CStateless
  in
  let c_pending = List.mapi (fun i e -> (e.time, e.prio, i, e.ev)) t.pending in
  let canon =
    { c_now = t.now; c_origin = t.origin; c_nodes = Array.to_list (Array.map canon_node t.nodes); c_pending }
  in
  Marshal.to_string canon []
