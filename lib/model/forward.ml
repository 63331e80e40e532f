open Utc_net
module Tb = Utc_sim.Timebase
module Fqueue = Utc_sim.Fqueue

type config = {
  loss_mode : [ `Likelihood | `Fork ];
  fork_gates : bool;
  epoch : float;
  max_branches : int;
}

let default_config = { loss_mode = `Likelihood; fork_gates = true; epoch = 1.0; max_branches = 1024 }

type delivery = {
  time : Tb.t;
  packet : Packet.t;
  trail : int list;
}

type outcome = {
  state : Mstate.t;
  logw : float;
  deliveries : delivery list;
}

type prepared = {
  config : config;
  compiled : Compiled.t;
  queue_free : bool array;
      (* queue_free.(id): no station is reachable from node id (inclusive),
         so a packet dropped here cannot affect any other packet. *)
  pass : float array;
      (* pass.(id): the probability that a packet gets through node id if
         it is a likelihood-mode loss, [1 - rate] (1 for a rate of 0);
         1 at every other node. [survive_p] multiplies these. *)
  dynamics : int;
      (* Hash of everything [shares_dynamics] compares; see
         [dynamics_hash]. *)
  mutable plan : prepared option;
      (* Memoized [fork_gates = false] variant for certainty-equivalent
         planning; see [plan_variant]. *)
}

let compiled_of p = p.compiled

(* A likelihood-mode loss: its rate weights each delivery that crossed
   it and changes nothing else about a run. *)
let likelihood_loss config queue_free id = config.loss_mode = `Likelihood && queue_free.(id)

(* --- dynamics identity --- *)

(* Floats compare by their bits ([Mstate.same_float]): runs must agree
   exactly. *)
let same_gate_kind (a : Compiled.gate_kind) (b : Compiled.gate_kind) =
  match a, b with
  | Memoryless a, Memoryless b ->
    Mstate.same_float a.mean_time_to_switch b.mean_time_to_switch
    && Bool.equal a.initially_connected b.initially_connected
  | Periodic a, Periodic b ->
    Mstate.same_float a.interval b.interval
    && Bool.equal a.initially_connected b.initially_connected
  | Memoryless _, Periodic _ | Periodic _, Memoryless _ -> false

(* [prepare] admits FIFO stations only. *)
let same_discipline (a : Topology.discipline) (b : Topology.discipline) =
  match a, b with
  | Fifo, Fifo -> true
  | (Fifo | Arq _ | Red | Codel), _ -> false

let same_node ~masked (a : Compiled.node) (b : Compiled.node) =
  match a, b with
  | Station a, Station b ->
    Option.equal Int.equal a.capacity_bits b.capacity_bits
    && Mstate.same_float a.rate_bps b.rate_bps
    && same_discipline a.discipline b.discipline
    && Mstate.same_link a.next b.next
  | Delay a, Delay b -> Mstate.same_float a.seconds b.seconds && Mstate.same_link a.next b.next
  | Loss a, Loss b -> (masked || Mstate.same_float a.rate b.rate) && Mstate.same_link a.next b.next
  | Jitter a, Jitter b ->
    Mstate.same_float a.seconds b.seconds
    && Mstate.same_float a.probability b.probability
    && Mstate.same_link a.next b.next
  | Gate a, Gate b -> same_gate_kind a.kind b.kind && Mstate.same_link a.next b.next
  | Either a, Either b ->
    Mstate.same_float a.mean_time_to_switch b.mean_time_to_switch
    && Bool.equal a.initially_first b.initially_first
    && Mstate.same_link a.first b.first
    && Mstate.same_link a.second b.second
  | Divert a, Divert b ->
    List.equal (fun (f, l) (g, m) -> Flow.equal f g && Mstate.same_link l m) a.routes b.routes
    && Mstate.same_link a.otherwise b.otherwise
  | Multipath a, Multipath b ->
    (match a.policy, b.policy with
    | `Round_robin, `Round_robin -> true
    | `Random x, `Random y -> Mstate.same_float x y
    | (`Round_robin | `Random _), _ -> false)
    && Mstate.same_link a.first b.first
    && Mstate.same_link a.second b.second
  | (Station _ | Delay _ | Loss _ | Jitter _ | Gate _ | Either _ | Divert _ | Multipath _), _ -> false

let same_pinger (a : Compiled.pinger) (b : Compiled.pinger) =
  Flow.equal a.flow b.flow
  && Mstate.same_float a.rate_pps b.rate_pps
  && a.size_bits = b.size_bits
  && Mstate.same_link a.entry b.entry

let same_config a b =
  (match a.loss_mode, b.loss_mode with
  | `Likelihood, `Likelihood | `Fork, `Fork -> true
  | (`Likelihood | `Fork), _ -> false)
  && Bool.equal a.fork_gates b.fork_gates
  && Mstate.same_float a.epoch b.epoch
  && a.max_branches = b.max_branches

let mix_float h x = Mstate.mix h (Int64.to_int (Int64.bits_of_float x))

(* One node's share of [dynamics_hash]. *)
let node_hash config queue_free id h (node : Compiled.node) =
  match node with
  | Station { capacity_bits; rate_bps; _ } ->
    mix_float (Mstate.mix h (Option.value capacity_bits ~default:(-1))) rate_bps
  | Delay { seconds; _ } -> mix_float (Mstate.mix h 2) seconds
  | Loss { rate; _ } ->
    if likelihood_loss config queue_free id then Mstate.mix h 3 else mix_float (Mstate.mix h 4) rate
  | Jitter { seconds; probability; _ } -> mix_float (mix_float h seconds) probability
  | Gate { kind = Memoryless { mean_time_to_switch = t; _ } | Periodic { interval = t; _ }; _ } ->
    mix_float (Mstate.mix h 5) t
  | Either { mean_time_to_switch; _ } -> mix_float (Mstate.mix h 6) mean_time_to_switch
  | Divert _ -> Mstate.mix h 7
  | Multipath _ -> Mstate.mix h 8

(* A hash of the numbers [shares_dynamics] compares, likelihood-mode loss
   rates left out (links and flows it leaves to [shares_dynamics]).
   Arithmetic only, since [prepare] computes it for every model of a
   prior: a generic hash of the config and graph added 15-20% to the
   policy and faults workloads' [setup_s]. *)
let dynamics_hash config compiled queue_free =
  let nodes = compiled.Compiled.nodes in
  let h =
    ref (mix_float (Mstate.mix (Bool.to_int config.fork_gates) config.max_branches) config.epoch)
  in
  for id = 0 to Array.length nodes - 1 do
    h := node_hash config queue_free id !h nodes.(id)
  done;
  List.fold_left (fun h (p : Compiled.pinger) -> mix_float h p.rate_pps) !h compiled.Compiled.pingers

let rec same_nodes p a b id =
  id >= Array.length a
  || same_node ~masked:(likelihood_loss p.config p.queue_free id) a.(id) b.(id)
     && same_nodes p a b (id + 1)

let shares_dynamics p q =
  p == q
  || p.dynamics = q.dynamics
     && same_config p.config q.config
     && (p.compiled == q.compiled
        ||
        let a = p.compiled and b = q.compiled in
        Array.length a.Compiled.nodes = Array.length b.Compiled.nodes
        && same_nodes p a.Compiled.nodes b.Compiled.nodes 0
        && Array.length a.Compiled.entries = Array.length b.Compiled.entries
        && Array.for_all2 (Option.equal Mstate.same_link) a.Compiled.entries b.Compiled.entries
        && List.equal same_pinger a.Compiled.pingers b.Compiled.pingers)

let prepare config compiled =
  let count = Compiled.node_count compiled in
  let memo = Array.make count None in
  let rec link_queue_free = function
    | Compiled.Deliver -> true
    | Compiled.To id -> node_queue_free id
  and node_queue_free id =
    match memo.(id) with
    | Some v -> v
    | None ->
      (* The compiled graph is a DAG (lowered from a tree), so no cycle
         guard is needed. *)
      let v =
        match Compiled.node compiled id with
        | Station { discipline = Fifo; _ } -> false
        | Station { discipline = (Arq _ | Red | Codel) as d; _ } ->
          invalid_arg
            (Format.asprintf
               "Forward.prepare: node %d is a %a station; the belief interpreter models FIFO \
                stations only"
               id Topology.pp_discipline d)
        | Delay { next; _ } | Loss { next; _ } | Jitter { next; _ } | Gate { next; _ } ->
          link_queue_free next
        | Either { first; second; _ } -> link_queue_free first && link_queue_free second
        | Multipath { first; second; _ } -> link_queue_free first && link_queue_free second
        | Divert { routes; otherwise } ->
          List.for_all (fun (_, l) -> link_queue_free l) routes && link_queue_free otherwise
      in
      memo.(id) <- Some v;
      v
  in
  let queue_free = Array.init count node_queue_free in
  let pass id =
    match Compiled.node compiled id with
    | Loss { rate; _ } when likelihood_loss config queue_free id && rate > 0.0 -> 1.0 -. rate
    | Station _ | Delay _ | Loss _ | Jitter _ | Gate _ | Either _ | Divert _ | Multipath _ -> 1.0
  in
  {
    config;
    compiled;
    queue_free;
    pass = Array.init count pass;
    dynamics = dynamics_hash config compiled queue_free;
    plan = None;
  }

(* The planner prices rollouts with gate forking off (certainty-
   equivalent planning) but otherwise the filter's exact model; deriving
   that variant is an O(nodes) [prepare] that used to run once per
   hypothesis per decision. Memoize it on the filter's [prepared] — the
   analysis is a pure function of [(config, compiled)], so the memo only
   saves work, never changes a result. Each [prepared] belongs to one
   run, whose planner fills the memo serially, so the unsynchronized
   mutable field is written by one domain at a time. *)
let plan_variant p =
  match p.config.fork_gates with
  | false -> p
  | true -> (
    match p.plan with
    | Some q -> q
    | None ->
      let config = { p.config with fork_gates = false } in
      let q =
        {
          config;
          compiled = p.compiled;
          queue_free = p.queue_free;
          pass = p.pass;
          dynamics = dynamics_hash config p.compiled p.queue_free;
          plan = None;
        }
      in
      p.plan <- Some q;
      q)

(* The trail is newest first; the product runs oldest first from 1, as
   the losses were crossed. Multiplying by a pass probability of 1 (a
   rate of 0) changes no bits, as skipping the loss did. *)
let rec survival pass = function
  | [] -> 1.0
  | id :: older -> survival pass older *. pass.(id)

(* Inlined, so a caller's arithmetic takes the result unboxed. A
   one-loss trail is the common case: [1.0 *. x] is [x]. *)
let[@inline] survive_p p (d : delivery) =
  match d.trail with
  | [] -> 1.0
  | [ id ] -> p.pass.(id)
  | _ :: _ :: _ -> survival p.pass d.trail

(* Open addressing over the dynamics hashes: a slot holds a label plus
   one (0 is empty), and [first.(l)] is the first model labelled [l].
   The table is at most half full and only finds slots; labels count up
   in order of first appearance. *)
let dynamics_labels models =
  let n = Array.length models in
  let size = ref 16 in
  while !size < 2 * n do
    size := 2 * !size
  done;
  let mask = !size - 1 in
  let slots = Array.make !size 0 in
  let first = Array.make n 0 in
  let labels = Array.make n 0 in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let m = models.(i) in
    let j = ref (m.dynamics land mask) in
    while slots.(!j) > 0 && not (shares_dynamics models.(first.(slots.(!j) - 1)) m) do
      j := (!j + 1) land mask
    done;
    if slots.(!j) = 0 then begin
      first.(!count) <- i;
      incr count;
      slots.(!j) <- !count
    end;
    labels.(i) <- slots.(!j) - 1
  done;
  labels

type branch = {
  state : Mstate.t;
  logw : float;
  deliveries_rev : delivery list;
}

let log_guarded p = if p <= 0.0 then neg_infinity else log p

(* The trail of a packet whose first likelihood-mode loss is [id]: one
   shared list per node id, so crossing a last-mile loss allocates
   nothing. *)
let first_crossings = Array.init 64 (fun id -> [ id ])

let first_crossing id = if id < Array.length first_crossings then first_crossings.(id) else [ id ]

(* A step's branches are built where the step ends: the handlers take
   the branch's state, log-weight and reversed deliveries apart, so a
   single-branch step builds one branch record. *)
let delivered state logw deliveries_rev packet trail =
  let d = { time = state.Mstate.now; packet; trail } in
  [ { state; logw; deliveries_rev = d :: deliveries_rev } ]

(* Process a packet arriving at [link] at the state's current time,
   chaining synchronously through stateless elements exactly as the
   ground-truth runtime does. Returns the branches this arrival forks
   into. *)
let rec arrive p state logw deliveries_rev link (mpkt : Mstate.mpkt) =
  match (link : Compiled.link) with
  | Deliver -> delivered state logw deliveries_rev mpkt.pkt mpkt.trail
  | To id -> (
    match Compiled.node p.compiled id with
    | Station { capacity_bits; rate_bps; discipline = _; next = _ } -> (
      let s = Mstate.station state id in
      match s.in_service with
      | None when Fqueue.is_empty s.queue ->
        let completion =
          Tb.add state.Mstate.now (float_of_int mpkt.pkt.Packet.bits /. rate_bps)
        in
        let s = { s with in_service = Some (mpkt, completion) } in
        let state =
          Mstate.set_node_insert state id (Mstate.MStation s) ~at:completion
            ~prio:Evprio.service_complete (Mstate.Complete id)
        in
        [ { state; logw; deliveries_rev } ]
      | Some _ | None ->
        let fits =
          match capacity_bits with
          | None -> true
          | Some cap -> s.queued_bits + mpkt.pkt.Packet.bits <= cap
        in
        if fits then begin
          let s =
            {
              s with
              queue = Fqueue.push mpkt s.queue;
              queued_bits = s.queued_bits + mpkt.pkt.Packet.bits;
            }
          in
          [ { state = Mstate.set_node state id (Mstate.MStation s); logw; deliveries_rev } ]
        end
        else [ { state; logw; deliveries_rev } ] (* tail drop *))
    | Delay { seconds; next } ->
      let state =
        Mstate.insert state
          ~at:(Tb.add state.Mstate.now seconds)
          ~prio:(Evprio.arrival mpkt.pkt.Packet.flow)
          (Mstate.Arrive (next, mpkt))
      in
      [ { state; logw; deliveries_rev } ]
    | Loss { rate; next } ->
      if likelihood_loss p.config p.queue_free id then begin
        (* Whatever the rate: [survive_p] reads it off the trail. *)
        let trail =
          match mpkt.trail with
          | [] -> first_crossing id
          | _ :: _ -> id :: mpkt.trail
        in
        (* A loss right before delivery delivers, without a new [mpkt]. *)
        match next with
        | Deliver -> delivered state logw deliveries_rev mpkt.pkt trail
        | To _ -> arrive p state logw deliveries_rev next { mpkt with trail }
      end
      else if rate <= 0.0 then arrive p state logw deliveries_rev next mpkt
      else begin
        (* Fork: lost here, or passed on. *)
        let lost = { state; logw = logw +. log_guarded rate; deliveries_rev } in
        if rate >= 1.0 then [ lost ]
        else lost :: arrive p state (logw +. log_guarded (1.0 -. rate)) deliveries_rev next mpkt
      end
    | Jitter { seconds; probability; next } ->
      if probability <= 0.0 || seconds = 0.0 then arrive p state logw deliveries_rev next mpkt
      else begin
        let delayed_state =
          Mstate.insert state
            ~at:(Tb.add state.Mstate.now seconds)
            ~prio:(Evprio.arrival mpkt.pkt.Packet.flow)
            (Mstate.Arrive (next, mpkt))
        in
        let delayed =
          { state = delayed_state; logw = logw +. log_guarded probability; deliveries_rev }
        in
        if probability >= 1.0 then [ delayed ]
        else
          delayed
          :: arrive p state (logw +. log_guarded (1.0 -. probability)) deliveries_rev next mpkt
      end
    | Gate { next; _ } ->
      if Mstate.gate_connected state id then arrive p state logw deliveries_rev next mpkt
      else [ { state; logw; deliveries_rev } ] (* dropped at closed gate *)
    | Either { first; second; _ } -> (
      match state.Mstate.nodes.(id) with
      | Mstate.MEither e ->
        arrive p state logw deliveries_rev (if e.on_first then first else second) mpkt
      | Mstate.MStation _ | Mstate.MGate _ | Mstate.MMultipath _ | Mstate.MStateless ->
        assert false)
    | Divert { routes; otherwise } -> divert p state logw deliveries_rev otherwise mpkt routes
    | Multipath { policy; first; second } -> (
      match policy, state.Mstate.nodes.(id) with
      | `Round_robin, Mstate.MMultipath m ->
        let target = if m.next_first then first else second in
        let state = Mstate.set_node state id (Mstate.MMultipath { next_first = not m.next_first }) in
        arrive p state logw deliveries_rev target mpkt
      | `Random prob, Mstate.MMultipath _ ->
        (* Fork: the packet takes the first path with probability prob. *)
        if prob >= 1.0 then arrive p state logw deliveries_rev first mpkt
        else if prob <= 0.0 then arrive p state logw deliveries_rev second mpkt
        else
          arrive p state (logw +. log_guarded prob) deliveries_rev first mpkt
          @ arrive p state (logw +. log_guarded (1.0 -. prob)) deliveries_rev second mpkt
      | _, (Mstate.MStation _ | Mstate.MGate _ | Mstate.MEither _ | Mstate.MStateless) ->
        assert false))

and divert p state logw deliveries_rev otherwise (mpkt : Mstate.mpkt) = function
  | [] -> arrive p state logw deliveries_rev otherwise mpkt
  | (flow, target) :: rest ->
    if Flow.equal flow mpkt.pkt.Packet.flow then arrive p state logw deliveries_rev target mpkt
    else divert p state logw deliveries_rev otherwise mpkt rest

(* [complete] is the popped [Complete id] event, queued again for the
   next service. *)
let handle_complete p state logw deliveries_rev id complete =
  let s = Mstate.station state id in
  let served =
    match s.in_service with
    | Some (mpkt, _) -> mpkt
    | None -> assert false
  in
  match Compiled.node p.compiled id with
  | Station { rate_bps; next; _ } ->
    (* Start the next service before forwarding the served packet,
       mirroring the ground-truth runtime's reentrancy-safe order. *)
    let state =
      if Fqueue.is_empty s.queue then
        Mstate.set_node state id (Mstate.MStation { s with in_service = None })
      else begin
        let head = Fqueue.head s.queue and queue = Fqueue.drop s.queue in
        let completion =
          Tb.add state.Mstate.now (float_of_int head.Mstate.pkt.Packet.bits /. rate_bps)
        in
        let s =
          {
            Mstate.queue;
            queued_bits = s.queued_bits - head.Mstate.pkt.Packet.bits;
            in_service = Some (head, completion);
          }
        in
        Mstate.set_node_insert state id (Mstate.MStation s) ~at:completion
          ~prio:Evprio.service_complete complete
      end
    in
    arrive p state logw deliveries_rev next served
  | Delay _ | Loss _ | Jitter _ | Gate _ | Either _ | Divert _ | Multipath _ -> assert false

let handle_pinger p state logw deliveries_rev i k =
  let pinger = List.nth p.compiled.Compiled.pingers i in
  let now = state.Mstate.now in
  let pkt = { Packet.seq = k; flow = pinger.flow; bits = pinger.size_bits; sent_at = now } in
  let next_at = state.Mstate.origin +. (float_of_int (k + 1) /. pinger.rate_pps) in
  let state =
    Mstate.insert state ~at:next_at ~prio:(Evprio.arrival pinger.flow)
      (Mstate.Pinger_emit (i, k + 1))
  in
  arrive p state logw deliveries_rev pinger.entry { Mstate.pkt; trail = [] }

let handle_toggle p state logw deliveries_rev id k =
  let interval =
    match Compiled.node p.compiled id with
    | Gate { kind = Periodic { interval; _ }; _ } -> interval
    | Gate { kind = Memoryless _; _ } | Station _ | Delay _ | Loss _ | Jitter _ | Either _
    | Divert _ | Multipath _ ->
      assert false
  in
  let connected = Mstate.gate_connected state id in
  let state =
    Mstate.set_node_insert state id
      (Mstate.MGate { connected = not connected })
      ~at:(state.Mstate.origin +. (float_of_int (k + 1) *. interval))
      ~prio:Evprio.gate_toggle
      (Mstate.Gate_toggle (id, k + 1))
  in
  [ { state; logw; deliveries_rev } ]

let flip_node state id =
  match state.Mstate.nodes.(id) with
  | Mstate.MGate g -> Mstate.set_node state id (Mstate.MGate { connected = not g.connected })
  | Mstate.MEither e -> Mstate.set_node state id (Mstate.MEither { on_first = not e.on_first })
  | Mstate.MStation _ | Mstate.MMultipath _ | Mstate.MStateless -> assert false

(* [epoch] is the popped [Gate_epoch id] event, rescheduled. *)
let handle_epoch p state logw deliveries_rev id epoch =
  let mtts =
    match Compiled.node p.compiled id with
    | Gate { kind = Memoryless { mean_time_to_switch; _ }; _ } -> mean_time_to_switch
    | Either { mean_time_to_switch; _ } -> mean_time_to_switch
    | Gate { kind = Periodic _; _ } | Station _ | Delay _ | Loss _ | Jitter _ | Divert _
    | Multipath _ ->
      assert false
  in
  (* A frozen gate consumes its epoch: rescheduling a no-op would only
     shift later sequence numbers, which never reorders other events. *)
  if not p.config.fork_gates then [ { state; logw; deliveries_rev } ]
  else begin
    (* Exact two-state Markov marginal over one epoch: the state differs
       with probability (1 - e^{-2 epoch / mtts}) / 2. *)
    let p_flip = 0.5 *. (1.0 -. exp (-2.0 *. p.config.epoch /. mtts)) in
    let stay =
      Mstate.insert state
        ~at:(Tb.add state.Mstate.now p.config.epoch)
        ~prio:Evprio.gate_toggle epoch
    in
    if p_flip <= 0.0 then [ { state = stay; logw; deliveries_rev } ]
    else
      (* Flipping the node commutes with the insert, so the flipped
         branch shares the stay branch's pending events. *)
      [
        { state = stay; logw = logw +. log_guarded (1.0 -. p_flip); deliveries_rev };
        { state = flip_node stay id; logw = logw +. log_guarded p_flip; deliveries_rev };
      ]
  end

let handle p state logw deliveries_rev (ev : Mstate.pev) =
  match ev with
  | Mstate.Arrive (link, mpkt) -> arrive p state logw deliveries_rev link mpkt
  | Mstate.Complete id -> handle_complete p state logw deliveries_rev id ev
  | Mstate.Pinger_emit (i, k) -> handle_pinger p state logw deliveries_rev i k
  | Mstate.Gate_toggle (id, k) -> handle_toggle p state logw deliveries_rev id k
  | Mstate.Gate_epoch id -> handle_epoch p state logw deliveries_rev id ev

let dropped_c = Utc_obs.Metrics.counter "model.forward.branches_dropped"

(* Drop the lightest work branch when the total (in-flight plus finished)
   exceeds the cap. Linear scan: the cap is large and rarely hit. *)
let drop_lightest work =
  let lightest = List.fold_left (fun acc b -> Float.min acc b.logw) infinity work in
  let dropped = ref false in
  List.filter
    (fun b ->
      if (not !dropped) && b.logw = lightest then begin
        dropped := true;
        false
      end
      else true)
    work

let beyond ~until_prio ~until (ev : Mstate.event) =
  Tb.( >. ) ev.Mstate.time until
  || (Tb.( >=. ) ev.Mstate.time until && ev.Mstate.prio >= until_prio)

let rec inject p ~until st = function
  | [] -> st
  | (at, pkt) :: sends ->
    if Tb.( <. ) at st.Mstate.now then invalid_arg "Forward.run: send before state time"
    else if Tb.( >. ) at until then invalid_arg "Forward.run: send after until"
    else begin
      let entry = Compiled.entry p.compiled pkt.Packet.flow in
      let st =
        Mstate.insert st ~at ~prio:(Evprio.arrival pkt.Packet.flow)
          (Mstate.Arrive (entry, { Mstate.pkt; trail = [] }))
      in
      inject p ~until st sends
    end

(* The branches [branch] becomes by handling [ev], the head of its
   pending events, whose tail is [remaining]. *)
let handle_next p branch (ev : Mstate.event) remaining =
  handle p
    { branch.state with Mstate.pending = remaining; now = ev.Mstate.time }
    branch.logw branch.deliveries_rev ev.Mstate.ev

(* Depth-first over the branches in [work], in order. *)
(* lint:hotpath -- runs once per simulated event of every filter window
   and of every candidate that forks *)
let explore p ~until_prio ~until work =
  let finished = ref [] in
  let finish branch =
    finished :=
      {
        state = { branch.state with Mstate.now = until };
        logw = branch.logw;
        deliveries = List.rev branch.deliveries_rev;
      }
      :: !finished
  in
  let work = ref work in
  let work_count = ref (List.length !work) in
  let finished_count = ref 0 in
  let rec loop () =
    match !work with
    | [] -> ()
    | branch :: rest ->
      work := rest;
      decr work_count;
      let () =
        match branch.state.Mstate.pending with
        | [] ->
          finish branch;
          incr finished_count
        | ev :: remaining ->
          if beyond ~until_prio ~until ev then begin
            finish branch;
            incr finished_count
          end
          else begin
            (match handle_next p branch ev remaining with
            | [ next ] ->
              work := next :: !work; (* lint:allow R11 -- the work list holds the run's live branches *)
              incr work_count
            | conts ->
              work := conts @ !work; (* lint:allow R11 -- a fork's branches join the work list *)
              work_count := !work_count + List.length conts);
            while !work_count > 0 && !work_count + !finished_count > p.config.max_branches do
              work := drop_lightest !work;
              decr work_count;
              Utc_obs.Metrics.incr dropped_c
            done
          end
      in
      loop ()
  in
  loop ();
  List.rev !finished

let run ?(until_prio = max_int) p state ~sends ~until =
  let state = inject p ~until state sends in
  explore p ~until_prio ~until [ { state; logw = 0.0; deliveries_rev = [] } ]

(* --- shared-prefix pricing --- *)

(* One step of a single-branch run: the branch just before it processes
   its next event, or (last step) where it stopped. *)
type step = {
  before : branch;
  delivered : int;  (* deliveries made before this step *)
}

type trace = {
  t_prepared : prepared;
  start : Tb.t;
  t_until : Tb.t;
  reserved : int;  (* the event sequence number a candidate send takes *)
  steps : step list;  (* in processing order; the last is where the run stopped *)
  t_logw : float;
  t_deliveries : delivery array;
}

let trace_deliveries t = t.t_deliveries
let trace_logw t = t.t_logw


(* Deliveries [later] holds on top of [earlier], its own tail. *)
let rec added ~earlier later =
  if later == earlier then 0
  else
    match later with
    | _ :: tail -> 1 + added ~earlier tail
    | [] -> 0

(* lint:hotpath -- runs once per simulated event of every planner
   baseline *)
let trace p state ~sends ~until =
  let state = inject p ~until state sends in
  (* Reserve the sequence number [pending @ [candidate]] gives the
     candidate, so every later event numbers as in the candidate's run. *)
  let reserved = state.Mstate.next_seq in
  let state = { state with Mstate.next_seq = reserved + 1 } in
  let rec go branch delivered steps =
    let steps = { before = branch; delivered } :: steps (* lint:allow R11 -- the trace keeps one step per event *) in
    match branch.state.Mstate.pending with
    | ev :: remaining when not (beyond ~until_prio:max_int ~until ev) -> (
      match handle_next p branch ev remaining with
      | [ next ] ->
        go next (delivered + added ~earlier:branch.deliveries_rev next.deliveries_rev) steps
      | [] | _ :: _ :: _ -> None)
    | [] | _ :: _ -> Some (branch, steps)
  in
  match go { state; logw = 0.0; deliveries_rev = [] } 0 [] with
  | None -> None
  | Some (last, steps) ->
    Some
      {
        t_prepared = p;
        start = state.Mstate.now;
        t_until = until;
        reserved;
        steps = List.rev steps;
        t_logw = last.logw;
        t_deliveries = Array.of_list (List.rev last.deliveries_rev);
      }

type resumed =
  | Single of { logw : float; prefix : int; fresh : delivery list; suffix : int }
  | Forked of outcome list

let precedes ~time ~prio ~seq (ev : Mstate.event) =
  let c = Tb.compare time ev.Mstate.time in
  if c <> 0 then c < 0
  else begin
    let c = Int.compare prio ev.Mstate.prio in
    if c <> 0 then c < 0 else seq < ev.Mstate.seq
  end

(* The steps from the one at which a send keyed [(time, prio, reserved)]
   comes due: the first whose next event sorts after it, or the stop. *)
let rec checkpoint t ~time ~prio steps =
  match steps with
  | step :: (_ :: _ as rest) -> (
    match step.before.state.Mstate.pending with
    | ev :: _ when precedes ~time ~prio ~seq:t.reserved ev -> steps
    | [] | _ :: _ -> checkpoint t ~time ~prio rest)
  | [ _ ] | [] -> steps

(* The steps from the first one that has processed every event at or
   before [now]. *)
let rec catch_up ~now steps =
  match steps with
  | step :: (_ :: _ as rest) -> (
    match step.before.state.Mstate.pending with
    | ev :: _ when Tb.( <=. ) ev.Mstate.time now -> catch_up ~now rest
    | [] | _ :: _ -> steps)
  | [ _ ] | [] -> steps

(* lint:hotpath -- runs once per simulated event of every candidate
   the planner prices off a trace *)
let resume t (at, pkt) =
  let p = t.t_prepared and until = t.t_until in
  if Tb.( <. ) at t.start then invalid_arg "Forward.resume: send before state time"
  else if Tb.( >. ) at until then invalid_arg "Forward.resume: send after until";
  let prio = Evprio.arrival pkt.Packet.flow in
  let steps = checkpoint t ~time:at ~prio t.steps in
  let from = List.hd steps in
  let prefix = from.delivered in
  let single branch ~logw ~suffix =
    Single { logw; prefix; fresh = List.rev branch.deliveries_rev; suffix }
  in
  (* On a fork, rerun the forking event under [explore] with the whole
     delivery history: from here on this is exactly [run]'s search. *)
  let fork branch =
    let rec history i acc =
      if i = prefix then acc
      else history (i + 1) (t.t_deliveries.(i) :: acc) (* lint:allow R11 -- once per forking candidate: its prefix's deliveries *)
    in
    let deliveries_rev = branch.deliveries_rev @ history 0 [] in
    Forked (explore p ~until_prio:max_int ~until [ { branch with deliveries_rev } ])
  in
  (* Step the candidate. At each time boundary, compare it with the
     baseline where the baseline has processed the same instants; once
     they converge, the rest of the candidate's run is the baseline's. *)
  let rec go branch steps =
    match branch.state.Mstate.pending with
    | ev :: remaining when not (beyond ~until_prio:max_int ~until ev) -> (
      let boundary = Tb.( >. ) ev.Mstate.time branch.state.Mstate.now in
      let steps = if boundary then catch_up ~now:branch.state.Mstate.now steps else steps in
      match steps with
      | step :: _
        when boundary
             && Mstate.same_float branch.logw step.before.logw
             && Mstate.converged branch.state step.before.state ->
        single branch ~logw:t.t_logw ~suffix:step.delivered
      | [] | _ :: _ -> (
        match handle_next p branch ev remaining with
        | [ next ] -> go next steps
        | [] | _ :: _ :: _ -> fork branch))
    | [] | _ :: _ -> single branch ~logw:branch.logw ~suffix:(Array.length t.t_deliveries)
  in
  let entry = Compiled.entry p.compiled pkt.Packet.flow in
  let state =
    Mstate.insert_reserved from.before.state ~seq:t.reserved ~at ~prio
      (Mstate.Arrive (entry, { Mstate.pkt; trail = [] }))
  in
  let start = { state; logw = from.before.logw; deliveries_rev = [] } in
  (* The send itself comes first, due by [until]; the states cannot
     converge before it. *)
  match state.Mstate.pending with
  | ev :: remaining when not (beyond ~until_prio:max_int ~until ev) -> (
    match handle_next p start ev remaining with
    | [ next ] -> go next steps
    | [] | _ :: _ :: _ -> fork start)
  | [] | _ :: _ -> fork start
