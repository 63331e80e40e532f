open Utc_net

module Engine = Utc_sim.Engine
module Rng = Utc_sim.Rng

type drop_reason =
  | Tail_drop
  | Stochastic_loss
  | Gate_closed

let pp_drop_reason ppf reason =
  let text =
    match reason with
    | Tail_drop -> "tail_drop"
    | Stochastic_loss -> "stochastic_loss"
    | Gate_closed -> "gate_closed"
  in
  Format.pp_print_string ppf text

type callbacks = {
  deliver : Flow.t -> Packet.t -> unit;
  on_drop : node_id:int -> reason:drop_reason -> Packet.t -> unit;
  on_queue : node_id:int -> bits:int -> packets:int -> unit;
}

let callbacks ?deliver ?on_drop ?on_queue () =
  {
    deliver = Option.value deliver ~default:(fun _ _ -> ());
    on_drop = Option.value on_drop ~default:(fun ~node_id:_ ~reason:_ _ -> ());
    on_queue = Option.value on_queue ~default:(fun ~node_id:_ ~bits:_ ~packets:_ -> ());
  }

type coupling = {
  arrived : int -> unit;
  held_bits : unit -> int;
  service_time : bits:int -> rate_bps:float -> float;
}

(* ARQ (link-layer retransmission): [abandoned] marks the packet in
   service as lost after [arq_max_tries] failed attempts. *)
type arq_state = {
  try_loss : float;
  per_try_overhead : float;
  mutable abandoned : bool;
}

type red_state = {
  mutable avg_bits : float;
  mutable since_last_drop : int; (* RED's "count" for spacing early drops *)
  mutable idle_since : float; (* when the station last went idle *)
}

type codel_state = {
  enqueued_at : float Queue.t; (* arrival times, parallel to the station queue *)
  mutable first_above_time : float option;
  mutable dropping : bool;
  mutable drop_next : float;
  mutable recent_drops : int; (* "count": drops in the current dropping state *)
}

type discipline_state =
  | DFifo
  | DArq of arq_state
  | DRed of red_state
  | DCodel of codel_state

type station_state = {
  queue : Packet.t Queue.t;
  mutable queued_bits : int;
  mutable busy : bool;
  mutable transmissions : int;
  disc : discipline_state;
  mutable coupling : coupling option;
}

type nstate =
  | SStation of station_state
  | SGate of { mutable connected : bool }
  | SEither of { mutable on_first : bool }
  | SMultipath of { mutable next_first : bool }
  | SStateless

type t = {
  engine : Engine.t;
  compiled : Compiled.t;
  states : nstate array;
  rngs : Rng.t array;
  cb : callbacks;
  (* Mid-run perturbations of the ground truth (fault injection). An
     override replaces the compiled parameter until cleared; rate
     overrides take effect at the next service start, loss overrides at
     the next arrival. *)
  rate_overrides : float option array;
  loss_overrides : float option array;
}

let effective_rate t id rate_bps = Option.value t.rate_overrides.(id) ~default:rate_bps
let effective_loss t id rate = Option.value t.loss_overrides.(id) ~default:rate

let drops_c = Utc_obs.Metrics.counter "elements.runtime.drops"

let queue_bits_h =
  Utc_obs.Metrics.histogram "elements.runtime.queue_bits"
    ~buckets:[ 1e3; 1e4; 1e5; 1e6; 1e7; 1e8 ]

(* All ground-truth drops funnel through here: the callback the
   experiment installed, plus telemetry. The runtime executes inside the
   (serial) engine loop, so recording keeps the journal deterministic. *)
let drop t ~node_id ~reason pkt =
  Utc_obs.Metrics.incr drops_c;
  if Utc_obs.Sink.enabled () then
    Utc_obs.Sink.record
      ~flow:(Flow.to_string pkt.Packet.flow)
      ~at:(Engine.now t.engine)
      (Utc_obs.Event.Packet_drop
         {
           node = string_of_int node_id;
           reason = Format.asprintf "%a" pp_drop_reason reason;
           seq = pkt.Packet.seq;
         });
  t.cb.on_drop ~node_id ~reason pkt

let note_queue t ~node_id ~bits ~packets =
  Utc_obs.Metrics.observe queue_bits_h (float_of_int bits);
  t.cb.on_queue ~node_id ~bits ~packets

(* --- station disciplines --- *)

let held_bits s =
  match s.coupling with
  | Some c -> c.held_bits ()
  | None -> 0

let arq_max_tries = 100

(* Attempts until the first success; after [arq_max_tries] failures the
   packet still occupies the link for every attempt, then is lost. *)
let arq_tries t id a =
  let rec attempt n =
    if n > arq_max_tries then begin
      a.abandoned <- true;
      arq_max_tries
    end
    else if Rng.bernoulli t.rngs.(id) ~p:a.try_loss then attempt (n + 1)
    else n
  in
  attempt 1

let take_abandoned s =
  match s.disc with
  | DArq a when a.abandoned ->
    a.abandoned <- false;
    true
  | DArq _ | DFifo | DRed _ | DCodel _ -> false

let red_weight = 0.002
let red_max_probability = 0.1

(* RED's arrival test: update the averaged queue, then tail-drop, drop
   above the upper threshold (75 % of capacity), or drop between the
   thresholds with a probability that rises with the average and with
   the count of packets since the last drop. *)
let red_rejects t id s capacity_bits rate_bps pkt =
  match s.disc, capacity_bits with
  | DRed r, Some cap ->
    let occupancy = s.queued_bits in
    (* While the station was idle the average decays as if empty packets
       had been transmitted: the idle period over the mean transmission
       time. *)
    if not s.busy then begin
      let mean_tx = float_of_int Packet.default_bits /. rate_bps in
      let m = (Engine.now t.engine -. r.idle_since) /. mean_tx in
      r.avg_bits <- r.avg_bits *. ((1.0 -. red_weight) ** m)
    end
    else
      r.avg_bits <- ((1.0 -. red_weight) *. r.avg_bits) +. (red_weight *. float_of_int occupancy);
    let min_threshold = cap / 4 and max_threshold = cap * 3 / 4 in
    if occupancy + pkt.Packet.bits > cap then true
    else if r.avg_bits >= float_of_int max_threshold then begin
      r.since_last_drop <- 0;
      true
    end
    else if r.avg_bits > float_of_int min_threshold then begin
      r.since_last_drop <- r.since_last_drop + 1;
      let span = float_of_int (max_threshold - min_threshold) in
      let base = red_max_probability *. ((r.avg_bits -. float_of_int min_threshold) /. span) in
      let scaled = base /. Float.max 1e-9 (1.0 -. (float_of_int r.since_last_drop *. base)) in
      let p = Float.min 1.0 (Float.max 0.0 scaled) in
      if Rng.bernoulli t.rngs.(id) ~p then begin
        r.since_last_drop <- 0;
        true
      end
      else false
    end
    else begin
      r.since_last_drop <- -1;
      false
    end
  | (DFifo | DArq _ | DRed _ | DCodel _), _ -> false

let went_idle t s =
  match s.disc with
  | DRed r -> r.idle_since <- Engine.now t.engine
  | DFifo | DArq _ | DCodel _ -> ()

let codel_target = 0.005
let codel_interval = 0.1
let codel_control_law count = codel_interval /. sqrt (float_of_int count)

(* A packet reaching an idle station has zero sojourn, which resets
   CoDel's above-target clock. *)
let codel_idle_arrival s =
  match s.disc with
  | DCodel c ->
    c.first_above_time <- None;
    c.dropping <- false
  | DFifo | DArq _ | DRed _ -> ()

let codel_stamp t s =
  match s.disc with
  | DCodel c -> Queue.push (Engine.now t.engine) c.enqueued_at
  | DFifo | DArq _ | DRed _ -> ()

(* CoDel's dequeue test for the head just taken, per the pseudocode: a
   sojourn below target (or a nearly empty queue) resets the above-target
   clock; staying above target for a full interval enters the dropping
   state, whose drops accelerate with their count. *)
let codel_drops t s =
  match s.disc with
  | DCodel c -> (
    let now = Engine.now t.engine in
    let sojourn = now -. Queue.take c.enqueued_at in
    if sojourn < codel_target || s.queued_bits <= Packet.default_bits then begin
      c.first_above_time <- None;
      c.dropping <- false;
      false
    end
    else
      match c.first_above_time with
      | None ->
        c.first_above_time <- Some (now +. codel_interval);
        false
      | Some first_above ->
        if c.dropping then
          if now >= c.drop_next then begin
            c.recent_drops <- c.recent_drops + 1;
            c.drop_next <- now +. codel_control_law c.recent_drops;
            true
          end
          else false
        else if now >= first_above then begin
          c.dropping <- true;
          c.recent_drops <- 1;
          c.drop_next <- now +. codel_control_law 1;
          true
        end
        else false)
  | DFifo | DArq _ | DRed _ -> false

(* Packet arrivals are processed synchronously: an event at time t whose
   consequence is an arrival elsewhere at the same t continues inline, so
   the canonical order of Evprio only has to arbitrate between events that
   were scheduled for the future. The belief-state interpreter follows the
   same convention. *)
let rec arrive t link pkt =
  match (link : Compiled.link) with
  | Deliver -> t.cb.deliver pkt.Packet.flow pkt
  | To id -> (
    match Compiled.node t.compiled id with
    | Station { capacity_bits; rate_bps; discipline = _; next } ->
      station_arrive t id capacity_bits rate_bps next pkt
    | Delay { seconds; next } ->
      let prio = Evprio.arrival pkt.Packet.flow in
      ignore (Engine.schedule_after ~prio t.engine ~delay:seconds (fun () -> arrive t next pkt))
    | Loss { rate; next } ->
      if Rng.bernoulli t.rngs.(id) ~p:(effective_loss t id rate) then
        drop t ~node_id:id ~reason:Stochastic_loss pkt
      else arrive t next pkt
    | Jitter { seconds; probability; next } ->
      if Rng.bernoulli t.rngs.(id) ~p:probability then begin
        let prio = Evprio.arrival pkt.Packet.flow in
        ignore (Engine.schedule_after ~prio t.engine ~delay:seconds (fun () -> arrive t next pkt))
      end
      else arrive t next pkt
    | Gate { kind = _; next } -> (
      match t.states.(id) with
      | SGate g -> if g.connected then arrive t next pkt else drop t ~node_id:id ~reason:Gate_closed pkt
      | SStation _ | SEither _ | SMultipath _ | SStateless -> assert false)
    | Either { first; second; _ } -> (
      match t.states.(id) with
      | SEither e -> arrive t (if e.on_first then first else second) pkt
      | SStation _ | SGate _ | SMultipath _ | SStateless -> assert false)
    | Divert { routes; otherwise } ->
      let rec route = function
        | [] -> arrive t otherwise pkt
        | (flow, target) :: rest ->
          if Flow.equal flow pkt.Packet.flow then arrive t target pkt else route rest
      in
      route routes
    | Multipath { policy; first; second } -> (
      match t.states.(id), policy with
      | SMultipath m, `Round_robin ->
        let target = if m.next_first then first else second in
        m.next_first <- not m.next_first;
        arrive t target pkt
      | SMultipath _, `Random p ->
        arrive t (if Rng.bernoulli t.rngs.(id) ~p then first else second) pkt
      | (SStation _ | SGate _ | SEither _ | SStateless), _ -> assert false))

and station_arrive t id capacity_bits rate_bps next pkt =
  match t.states.(id) with
  | SStation s ->
    (match s.coupling with
    | Some c -> c.arrived pkt.Packet.bits
    | None -> ());
    if red_rejects t id s capacity_bits rate_bps pkt then drop t ~node_id:id ~reason:Tail_drop pkt
    else if (not s.busy) && Queue.is_empty s.queue then begin
      codel_idle_arrival s;
      start_service t id s rate_bps next pkt
    end
    else begin
      let fits =
        match capacity_bits with
        | None -> true
        | Some cap -> s.queued_bits + pkt.Packet.bits + held_bits s <= cap
      in
      if fits then begin
        Queue.push pkt s.queue;
        s.queued_bits <- s.queued_bits + pkt.Packet.bits;
        codel_stamp t s;
        note_queue t ~node_id:id ~bits:s.queued_bits ~packets:(Queue.length s.queue)
      end
      else drop t ~node_id:id ~reason:Tail_drop pkt
    end
  | SGate _ | SEither _ | SMultipath _ | SStateless -> assert false

and start_service t id s rate_bps next pkt =
  s.busy <- true;
  let tries =
    match s.disc with
    | DArq a -> arq_tries t id a
    | DFifo | DRed _ | DCodel _ -> 1
  in
  s.transmissions <- s.transmissions + tries;
  let rate = effective_rate t id rate_bps in
  let service_time =
    match s.disc, s.coupling with
    | DArq a, _ ->
      float_of_int tries *. ((float_of_int pkt.Packet.bits /. rate) +. a.per_try_overhead)
    | (DFifo | DRed _ | DCodel _), None -> float_of_int pkt.Packet.bits /. rate
    | (DFifo | DRed _ | DCodel _), Some c -> c.service_time ~bits:pkt.Packet.bits ~rate_bps:rate
  in
  (* On completion the next service starts BEFORE the served packet is
     forwarded: forwarding can reach a receiver whose sender synchronously
     injects a new packet back into this station, and that packet must see
     the post-dequeue state. The belief-state interpreter mirrors this
     order. *)
  let complete () =
    s.busy <- false;
    let lost = take_abandoned s in
    serve_next t id s rate_bps next;
    if lost then drop t ~node_id:id ~reason:Stochastic_loss pkt else arrive t next pkt
  in
  ignore (Engine.schedule_after ~prio:Evprio.service_complete t.engine ~delay:service_time complete)

(* Take the queue head into service; CoDel may drop heads first. *)
and serve_next t id s rate_bps next =
  match Queue.take_opt s.queue with
  | None -> went_idle t s
  | Some head ->
    s.queued_bits <- s.queued_bits - head.Packet.bits;
    note_queue t ~node_id:id ~bits:s.queued_bits ~packets:(Queue.length s.queue);
    if codel_drops t s then begin
      drop t ~node_id:id ~reason:Tail_drop head;
      serve_next t id s rate_bps next
    end
    else start_service t id s rate_bps next head

let start_gate t id kind =
  match t.states.(id) with
  | SGate g -> (
    match (kind : Compiled.gate_kind) with
    | Memoryless { mean_time_to_switch; _ } ->
      let rec toggle () =
        g.connected <- not g.connected;
        schedule_next ()
      and schedule_next () =
        let delay = Rng.exponential t.rngs.(id) ~mean:mean_time_to_switch in
        ignore (Engine.schedule_after ~prio:Evprio.gate_toggle t.engine ~delay toggle)
      in
      schedule_next ()
    | Periodic { interval; _ } ->
      (* Absolute times k*interval avoid accumulating float drift, keeping
         the toggles exactly where the belief model computes them. *)
      let rec toggle k () =
        g.connected <- not g.connected;
        schedule_next (k + 1)
      and schedule_next k =
        ignore
          (Engine.schedule ~prio:Evprio.gate_toggle t.engine
             ~at:(float_of_int k *. interval)
             (toggle k))
      in
      schedule_next 1)
  | SStation _ | SEither _ | SMultipath _ | SStateless -> assert false

let start_either t id mean_time_to_switch =
  match t.states.(id) with
  | SEither e ->
    let rec toggle () =
      e.on_first <- not e.on_first;
      schedule_next ()
    and schedule_next () =
      let delay = Rng.exponential t.rngs.(id) ~mean:mean_time_to_switch in
      ignore (Engine.schedule_after ~prio:Evprio.gate_toggle t.engine ~delay toggle)
    in
    schedule_next ()
  | SStation _ | SGate _ | SMultipath _ | SStateless -> assert false

let start_pinger t (p : Compiled.pinger) =
  let prio = Evprio.arrival p.flow in
  (* Emission k at exactly k / rate, the same expression the belief model
     evaluates, so predicted and actual timings agree to the last bit. *)
  let rec emit k () =
    let pkt = Packet.make ~bits:p.size_bits ~flow:p.flow ~seq:k ~sent_at:(Engine.now t.engine) () in
    arrive t p.entry pkt;
    schedule_next (k + 1)
  and schedule_next k =
    ignore (Engine.schedule ~prio t.engine ~at:(float_of_int k /. p.rate_pps) (emit k))
  in
  schedule_next 0

let build engine compiled cb =
  let count = Compiled.node_count compiled in
  let states =
    Array.init count (fun id ->
        match Compiled.node compiled id with
        | Station { discipline; _ } ->
          let disc =
            match (discipline : Topology.discipline) with
            | Fifo -> DFifo
            | Arq { try_loss; per_try_overhead } ->
              DArq { try_loss; per_try_overhead; abandoned = false }
            | Red -> DRed { avg_bits = 0.0; since_last_drop = -1; idle_since = 0.0 }
            | Codel ->
              DCodel
                {
                  enqueued_at = Queue.create ();
                  first_above_time = None;
                  dropping = false;
                  drop_next = 0.0;
                  recent_drops = 0;
                }
          in
          SStation
            {
              queue = Queue.create ();
              queued_bits = 0;
              busy = false;
              transmissions = 0;
              disc;
              coupling = None;
            }
        | Gate { kind = Memoryless { initially_connected; _ }; _ }
        | Gate { kind = Periodic { initially_connected; _ }; _ } ->
          SGate { connected = initially_connected }
        | Either { initially_first; _ } -> SEither { on_first = initially_first }
        | Multipath _ -> SMultipath { next_first = true }
        | Delay _ | Loss _ | Jitter _ | Divert _ -> SStateless)
  in
  let root = Engine.rng engine in
  let rngs = Array.init count (fun _ -> Rng.split root) in
  let t =
    {
      engine;
      compiled;
      states;
      rngs;
      cb;
      rate_overrides = Array.make count None;
      loss_overrides = Array.make count None;
    }
  in
  Array.iteri
    (fun id n ->
      match (n : Compiled.node) with
      | Gate { kind; _ } -> start_gate t id kind
      | Either { mean_time_to_switch; _ } -> start_either t id mean_time_to_switch
      | Station _ | Delay _ | Loss _ | Jitter _ | Divert _ | Multipath _ -> ())
    compiled.Compiled.nodes;
  List.iter (start_pinger t) compiled.Compiled.pingers;
  t

let inject t flow pkt = arrive t (Compiled.entry t.compiled flow) pkt
let compiled t = t.compiled

let set_rate_override t ~node_id rate =
  (match Compiled.node t.compiled node_id with
  | Station _ -> ()
  | Delay _ | Loss _ | Jitter _ | Gate _ | Either _ | Divert _ | Multipath _ ->
    invalid_arg "Runtime.set_rate_override: node is not a station");
  (match rate with
  | Some r when r <= 0.0 -> invalid_arg "Runtime.set_rate_override: rate must be positive"
  | Some _ | None -> ());
  t.rate_overrides.(node_id) <- rate

let set_loss_override t ~node_id rate =
  (match Compiled.node t.compiled node_id with
  | Loss _ -> ()
  | Delay _ | Station _ | Jitter _ | Gate _ | Either _ | Divert _ | Multipath _ ->
    invalid_arg "Runtime.set_loss_override: node is not a loss element");
  (match rate with
  | Some p when p < 0.0 || p > 1.0 ->
    invalid_arg "Runtime.set_loss_override: probability out of [0, 1]"
  | Some _ | None -> ());
  t.loss_overrides.(node_id) <- rate

let station_state t ~node_id =
  match t.states.(node_id) with
  | SStation s -> s
  | SGate _ | SEither _ | SMultipath _ | SStateless -> invalid_arg "Runtime: node is not a station"

let couple t ~node_id coupling =
  let s = station_state t ~node_id in
  match s.disc with
  | DFifo -> s.coupling <- Some coupling
  | DArq _ | DRed _ | DCodel _ -> invalid_arg "Runtime.couple: station is not FIFO"

let queue_bits t ~node_id = (station_state t ~node_id).queued_bits
let queue_packets t ~node_id = Queue.length (station_state t ~node_id).queue
let in_service t ~node_id = (station_state t ~node_id).busy
let transmissions t ~node_id = (station_state t ~node_id).transmissions
