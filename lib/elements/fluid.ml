open Utc_net
module Engine = Utc_sim.Engine

(* --- fixed-point population state ---

   Exchangeable flows share one state, so the population is a flow count
   and one per-flow window. The window and the per-flow rate are Q43.20
   integers, rounded back after every step, and the aggregates are
   [flows * rate] and [flows * window]. The integrator is serial, so the
   rounding buys no determinism; it stays because the committed numbers
   (the goldens and BENCH_meanfield.json) were produced with it. *)

let fix_bits = 20
let fix_scale = 1 lsl fix_bits
let fix_of_float x = int_of_float (Float.round (x *. float_of_int fix_scale))
let float_of_fix x = float_of_int x /. float_of_int fix_scale

(* Per-flow rate clamp: 2^28 in Q.20 is 256 packets per second per
   background flow. With at most 2^22 flows, [flows * rate] stays under
   2^50, and [flows * window] (windows clamp at 4096 packets, 2^32 in
   Q.20) under 2^55. *)
let max_rate_fix = 1 lsl 28

let max_total_flows = 1 lsl 22

(* Every background flow sends full-size segments and starts at a window
   of one packet. *)
let pkt_bits = Packet.default_bits
let init_window_pkts = 1.0

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

type t = {
  engine : Engine.t;
  runtime : Runtime.t;
  dt : float;
  (* background *)
  flows : int;
  mutable w_fix : int;  (** per-flow window, Q43.20 packets *)
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
   the queues, form the aggregate offered rate, thin it hop by hop
   against residual capacities and tail-drop headroom, then advance the
   per-flow AIMD window (Misra-Gong-Towsley fluid Reno:
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
        +. ((hop.fq_bits +. float_of_int (fg_queue_bits t hop) +. float_of_int pkt_bits)
            /. hop.hop_rate_bps))
      (rtt_floor +. t.base_delay)
      t.hops
  in
  (* aggregate offered rate: flows * the rounded per-flow rate *)
  let x_fix =
    let x_fix = fix_of_float (float_of_fix t.w_fix /. rtt) in
    if x_fix < 0 then 0 else min x_fix max_rate_fix
  in
  let offered_pps = float_of_fix (t.flows * x_fix) in
  let offered_bps = offered_pps *. float_of_int pkt_bits in
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
  (* per-flow AIMD step, in float and rounded back *)
  let w = float_of_fix t.w_fix in
  let x = Float.min (w /. rtt) (float_of_fix max_rate_fix) in
  let dw = dt *. ((1.0 /. rtt) -. (0.5 *. w *. x *. loss_prob)) in
  t.w_fix <- fix_of_float (Float.max 1.0 (Float.min max_window_pkts (w +. dw)));
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

let build ?(dt = 0.01) engine compiled cb ~flow ~flows =
  if dt <= 0.0 then invalid_arg "Fluid.build: dt must be positive";
  if flows < 0 || flows > max_total_flows then
    invalid_arg "Fluid.build: background flows out of range";
  let entry =
    match Compiled.entry compiled flow with
    | link -> link
    | exception Not_found ->
      invalid_arg "Fluid.build: background population flow has no Endpoint source"
  in
  let hops, base_delay, survive = trace_path compiled ~flow ~entry in
  let runtime = Runtime.build engine compiled cb in
  List.iter (fun hop -> Runtime.couple runtime ~node_id:hop.hop_id (coupling hop)) hops;
  let t =
    {
      engine;
      runtime;
      dt;
      flows;
      w_fix = fix_of_float init_window_pkts;
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
  if flows > 0 then start_ticks t;
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
    if t.flows = 0 then 0.0 else float_of_fix (t.flows * t.w_fix) /. float_of_int t.flows
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
