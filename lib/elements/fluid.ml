open Utc_net
module Engine = Utc_sim.Engine

(* --- fixed-point class state ---

   Class windows and per-flow rate contributions are Q43.20 integers.
   Aggregation over classes is an exact integer sum of [flows * rate]
   terms, which is what makes the integrator bitwise invariant to
   population chunking and class order; the nonlinear parts of each step
   run in float on (identical) fixed-point inputs and round back, so
   equal classes stay bitwise equal forever. *)

let fix_bits = 20
let fix_scale = 1 lsl fix_bits
let fix_of_float x = int_of_float (Float.round (x *. float_of_int fix_scale))
let float_of_fix x = float_of_int x /. float_of_int fix_scale

(* Per-flow rate clamp keeping [flows * rate] well under 2^62:
   2^20 flows * 2^48 < 2^62 even summed over 4096 classes. 2^28 in Q.20
   is 256 packets per second per background flow. *)
let max_rate_fix = 1 lsl 28

type pop_class = { flows : int; init_window_pkts : float }

type population = {
  pop_flow : Flow.t;
  pkt_bits : int;
  pop_classes : pop_class list;
}

let max_class_flows = 1 lsl 20
let max_classes = 4096
let max_total_flows = 1 lsl 22

let population ?(classes = 1) ~flow ~flows () =
  if classes < 1 then invalid_arg "Fluid.population: classes must be positive";
  if flows < 0 then invalid_arg "Fluid.population: flows must be non-negative";
  (* Balanced partition: the first [flows mod classes] classes get one
     extra flow. Classes are identical in state, so any partition of the
     same total yields the same aggregates (exactly — see fixed-point
     note above). *)
  let classes = if flows = 0 then 1 else min classes flows in
  let base = flows / classes and extra = flows mod classes in
  let pop_classes =
    List.init classes (fun i ->
        { flows = (base + if i < extra then 1 else 0); init_window_pkts = 1.0 })
  in
  { pop_flow = flow; pkt_bits = Packet.default_bits; pop_classes }

(* Per-flow window clamp, in packets. *)
let max_window_pkts = 4096.0

(* Lower bound on the population RTT, so rate stays finite on delay-free
   paths. *)
let rtt_floor = 1e-3

(* EWMA weight of the newest per-station foreground arrival-rate
   sample. *)
let fg_smoothing = 0.25

(* --- per-hop state ---

   The fluid half of each station on the background path; the packets
   are Runtime's, which reaches this state through the station's
   [coupling]. *)

type hop = {
  hop_id : int;
  hop_rate_bps : float;
  hop_cap_bits : int option;
  mutable fq_bits : float;  (** background fluid backlog, bits *)
  mutable bg_depart_bps : float;  (** background departure rate, last tick *)
  mutable fg_bits_acc : int;  (** foreground bits arrived since last tick *)
  mutable fg_rate_bps : float;  (** EWMA foreground arrival rate *)
}

type class_state = { n_flows : int; mutable w_fix : int }

type t = {
  engine : Engine.t;
  runtime : Runtime.t;
  dt : float;
  (* background *)
  pkt_bits : int;
  total_flows : int;
  classes : class_state array;
  hops : hop list;  (** stations on the background path, path order *)
  base_delay : float;  (** propagation + mean jitter on the path *)
  survive : float;  (** product of (1 - loss) over path Loss elements *)
  mutable steps : int;
  mutable delivered_bits : float;
  mutable last_rtt : float;
  mutable last_loss_prob : float;
  mutable last_offered_pps : float;
  mutable last_goodput_bps : float;
}

(* --- background path extraction --- *)

let trace_path compiled ~flow ~entry =
  let count = Compiled.node_count compiled in
  let rec walk link hops delay survive steps =
    if steps > count then
      invalid_arg "Fluid.build: background path does not terminate"
    else
      match (link : Compiled.link) with
      | Deliver -> (List.rev hops, delay, survive)
      | To id -> (
        match Compiled.node compiled id with
        | Station { capacity_bits; rate_bps; discipline = Fifo; next } ->
          let hop =
            {
              hop_id = id;
              hop_rate_bps = rate_bps;
              hop_cap_bits = capacity_bits;
              fq_bits = 0.0;
              bg_depart_bps = 0.0;
              fg_bits_acc = 0;
              fg_rate_bps = 0.0;
            }
          in
          walk next (hop :: hops) delay survive (steps + 1)
        | Station { discipline = (Arq _ | Red | Codel) as d; _ } ->
          invalid_arg
            (Format.asprintf
               "Fluid.build: background path crosses node %d, a %a station; the fluid \
                population models FIFO stations only"
               id Topology.pp_discipline d)
        | Delay { seconds; next } -> walk next hops (delay +. seconds) survive (steps + 1)
        | Loss { rate; next } -> walk next hops delay (survive *. (1.0 -. rate)) (steps + 1)
        | Jitter { seconds; probability; next } ->
          (* The population sees the jitter element's mean extra delay. *)
          walk next hops (delay +. (seconds *. probability)) survive (steps + 1)
        | Divert { routes; otherwise } ->
          let target =
            match List.find_opt (fun (f, _) -> Flow.equal f flow) routes with
            | Some (_, target) -> target
            | None -> otherwise
          in
          walk target hops delay survive (steps + 1)
        | Gate _ | Either _ | Multipath _ ->
          invalid_arg
            "Fluid.build: background path crosses a Gate/Either/Multipath element; the v1 \
             mean-field backend only supports Station/Delay/Loss/Jitter/Divert on the \
             population path")
  in
  walk entry [] 0.0 1.0 0

(* --- the coupling ---

   What a coupled station's foreground packets see of the fluid: the
   tail-drop admission test charges the fluid backlog against free buffer
   space, a packet entering service first waits out the fluid backlog at
   the full line rate, and service runs at the residual rate the
   background departure process leaves. Both service terms are exactly
   zero when the population is empty, collapsing the expression to
   Runtime's own [bits / rate]. *)

let coupling hop =
  {
    Runtime.arrived = (fun bits -> hop.fg_bits_acc <- hop.fg_bits_acc + bits);
    held_bits = (fun () -> int_of_float (Float.ceil hop.fq_bits));
    service_time =
      (fun ~bits ~rate_bps ->
        let fg_rate =
          if hop.bg_depart_bps > 0.0 then
            Float.max (rate_bps -. hop.bg_depart_bps) (0.01 *. rate_bps)
          else rate_bps
        in
        let fluid_wait = if hop.fq_bits > 0.0 then hop.fq_bits /. rate_bps else 0.0 in
        fluid_wait +. (float_of_int bits /. fg_rate));
  }

(* --- the integrator --- *)

(* Foreground packet bits queued at a hop's station. *)
let fg_queue_bits t hop = Runtime.queue_bits t.runtime ~node_id:hop.hop_id

(* One fixed step: EWMA the foreground rates, read the population RTT off
   the queues, form the exact aggregate offered rate, thin it hop by hop
   against residual capacities and tail-drop headroom, then advance each
   class's AIMD window (Misra-Gong-Towsley fluid Reno:
   dw/dt = 1/R - (w/2) x p). *)
(* lint:hotpath -- runs every dt (default 10ms of sim time) for the
   whole run; the per-hop iterator closures must stay allocation-free. *)
let tick t =
  (* The integrator phase of the hybrid backend, attributed separately
     from the packet phase (see [inject]). *)
  Utc_obs.Metrics.span ~name:"fluid.tick" ~now:(fun () -> Engine.now t.engine) @@ fun () ->
  let dt = t.dt in
  (* foreground arrival rates *)
  List.iter
    (fun hop ->
      let sample = float_of_int hop.fg_bits_acc /. dt in
      hop.fg_bits_acc <- 0;
      hop.fg_rate_bps <-
        (if t.steps = 0 then sample
         else ((1.0 -. fg_smoothing) *. hop.fg_rate_bps) +. (fg_smoothing *. sample)))
    t.hops;
  (* population RTT: propagation + queueing (fluid and foreground bits)
     + per-hop transmission time *)
  let rtt =
    List.fold_left
      (fun acc hop ->
        acc
        +. ((hop.fq_bits +. float_of_int (fg_queue_bits t hop) +. float_of_int t.pkt_bits)
            /. hop.hop_rate_bps))
      (rtt_floor +. t.base_delay)
      t.hops
  in
  (* aggregate offered rate: exact integer sum of flows * per-flow rate *)
  let offered_fix =
    Array.fold_left
      (fun acc c ->
        let x_fix =
          if c.n_flows = 0 then 0
          else
            let x = float_of_fix c.w_fix /. rtt in
            let x_fix = fix_of_float x in
            if x_fix < 0 then 0 else min x_fix max_rate_fix
        in
        acc + (c.n_flows * x_fix))
      0 t.classes
  in
  let offered_pps = float_of_fix offered_fix in
  let offered_bps = offered_pps *. float_of_int t.pkt_bits in
  (* thin hop by hop *)
  let rate_in = ref offered_bps in
  List.iter
    (fun hop ->
      let resid = Float.max (hop.hop_rate_bps -. hop.fg_rate_bps) (0.05 *. hop.hop_rate_bps) in
      let arr = !rate_in in
      let depart = Float.min resid (arr +. (hop.fq_bits /. dt)) in
      let fq' = Float.max 0.0 (hop.fq_bits +. ((arr -. depart) *. dt)) in
      let headroom =
        match hop.hop_cap_bits with
        | None -> Float.infinity
        | Some cap -> Float.max 0.0 (float_of_int cap -. float_of_int (fg_queue_bits t hop))
      in
      hop.fq_bits <- Float.min fq' headroom;
      hop.bg_depart_bps <- depart;
      rate_in := depart)
    t.hops;
  let goodput_bps = !rate_in *. t.survive in
  let loss_prob =
    if offered_bps > 1e-9 then Float.max 0.0 (Float.min 1.0 (1.0 -. (goodput_bps /. offered_bps)))
    else 0.0
  in
  (* per-class AIMD step (float on identical inputs, rounded back) *)
  Array.iter
    (fun c ->
      if c.n_flows > 0 then begin
        let w = float_of_fix c.w_fix in
        let x = Float.min (w /. rtt) (float_of_fix max_rate_fix) in
        let dw = dt *. ((1.0 /. rtt) -. (0.5 *. w *. x *. loss_prob)) in
        let w' = Float.max 1.0 (Float.min max_window_pkts (w +. dw)) in
        c.w_fix <- fix_of_float w'
      end)
    t.classes;
  t.delivered_bits <- t.delivered_bits +. (goodput_bps *. dt);
  t.steps <- t.steps + 1;
  t.last_rtt <- rtt;
  t.last_loss_prob <- loss_prob;
  t.last_offered_pps <- offered_pps;
  t.last_goodput_bps <- goodput_bps

let start_ticks t =
  let dt = t.dt in
  let rec step k () =
    tick t;
    schedule_next (k + 1)
  and schedule_next k =
    (* Absolute times k*dt, like periodic gates, so float drift cannot
       accumulate across millions of steps. *)
    ignore (Engine.schedule ~prio:Evprio.fluid_tick t.engine ~at:(float_of_int k *. dt) (step k))
  in
  schedule_next 1

(* --- construction --- *)

let build ?(dt = 0.01) engine compiled cb ~(background : population) =
  if dt <= 0.0 then invalid_arg "Fluid.build: dt must be positive";
  if background.pkt_bits <= 0 then invalid_arg "Fluid.build: pkt_bits must be positive";
  if List.length background.pop_classes > max_classes then
    invalid_arg "Fluid.build: too many population classes";
  let total_flows =
    List.fold_left
      (fun acc (c : pop_class) ->
        if c.flows < 0 || c.flows > max_class_flows then
          invalid_arg "Fluid.build: class flow count out of range";
        if c.init_window_pkts < 1.0 || c.init_window_pkts > max_window_pkts then
          invalid_arg "Fluid.build: init window out of range";
        acc + c.flows)
      0 background.pop_classes
  in
  if total_flows > max_total_flows then invalid_arg "Fluid.build: too many background flows";
  let entry =
    match Compiled.entry compiled background.pop_flow with
    | link -> link
    | exception Not_found ->
      invalid_arg "Fluid.build: background population flow has no Endpoint source"
  in
  let hops, base_delay, survive = trace_path compiled ~flow:background.pop_flow ~entry in
  let runtime = Runtime.build engine compiled cb in
  List.iter (fun hop -> Runtime.couple runtime ~node_id:hop.hop_id (coupling hop)) hops;
  let classes =
    Array.of_list
      (List.map
         (fun (c : pop_class) ->
           { n_flows = c.flows; w_fix = fix_of_float c.init_window_pkts })
         background.pop_classes)
  in
  let t =
    {
      engine;
      runtime;
      dt;
      pkt_bits = background.pkt_bits;
      total_flows;
      classes;
      hops;
      base_delay;
      survive;
      steps = 0;
      delivered_bits = 0.0;
      last_rtt = rtt_floor +. base_delay;
      last_loss_prob = 0.0;
      last_offered_pps = 0.0;
      last_goodput_bps = 0.0;
    }
  in
  (* An empty population schedules no ticks: the engine's event stream is
     then exactly the direct runtime's. *)
  if total_flows > 0 then start_ticks t;
  t

let inject t flow pkt =
  (* The packet phase: the synchronous part of a foreground packet's walk
     through Runtime (later hops continue via scheduled arrivals). *)
  Utc_obs.Metrics.span ~name:"fluid.inject"
    ~now:(fun () -> Engine.now t.engine)
    (fun () -> Runtime.inject t.runtime flow pkt)

let runtime t = t.runtime
let steps t = t.steps

type agg = {
  at : float;
  mean_window_pkts : float;
  offered_pps : float;
  goodput_bps : float;
  delivered_bits : float;
  loss_prob : float;
  rtt : float;
  queue_bits : (int * float) list;
}

let sample t =
  let mean_window =
    if t.total_flows = 0 then 0.0
    else
      (* Exact integer sum of flows * window, same invariance argument as
         the offered-rate aggregate. *)
      let sum_fix = Array.fold_left (fun acc c -> acc + (c.n_flows * c.w_fix)) 0 t.classes in
      float_of_fix sum_fix /. float_of_int t.total_flows
  in
  {
    at = float_of_int t.steps *. t.dt;
    mean_window_pkts = mean_window;
    offered_pps = t.last_offered_pps;
    goodput_bps = t.last_goodput_bps;
    delivered_bits = t.delivered_bits;
    loss_prob = t.last_loss_prob;
    rtt = t.last_rtt;
    queue_bits = List.map (fun hop -> (hop.hop_id, hop.fq_bits)) t.hops;
  }

let class_states t = Array.to_list (Array.map (fun c -> (c.n_flows, c.w_fix)) t.classes)
