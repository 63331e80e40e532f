open Utc_net
module Engine = Utc_sim.Engine
module Fluid = Utc_elements.Fluid
module Runtime = Utc_elements.Runtime
module Metrics = Utc_obs.Metrics
module Sink = Utc_obs.Sink

type topo =
  | Single
  | Parking_lot

let topo_to_string = function
  | Single -> "single"
  | Parking_lot -> "parking_lot"

type config = {
  seed : int;
  duration : float;
  background : int;
  foreground : int;
  topo : topo;
  dt : float;
  sample_every : float;
}

let default_config =
  {
    seed = 1;
    duration = 120.0;
    background = 5_000;
    foreground = 2;
    topo = Single;
    dt = 0.01;
    sample_every = 1.0;
  }

(* The parking lot chains a second, tighter bottleneck behind a 20 ms
   hop. *)
let shared_path ~topo ~total_flows =
  let rate, cap = Versus.scaled_bottleneck ~flows:total_flows in
  match topo with
  | Single -> Topology.series [ Topology.buffer ~capacity_bits:cap; Topology.throughput ~rate_bps:rate ]
  | Parking_lot ->
    Topology.series
      [
        Topology.buffer ~capacity_bits:cap;
        Topology.throughput ~rate_bps:rate;
        Topology.delay ~seconds:0.02;
        Topology.buffer ~capacity_bits:(cap * 3 / 4);
        Topology.throughput ~rate_bps:(0.8 *. rate);
      ]

(* The buffer bits along a path; only [Buffer] hops hold any on the
   paths [shared_path] builds. *)
let rec buffer_bits = function
  | Topology.Buffer { capacity_bits } -> capacity_bits
  | Topology.Series hops -> List.fold_left (fun bits hop -> bits + buffer_bits hop) 0 hops
  | _ -> 0

let buffer_capacity ~topo ~total_flows = buffer_bits (shared_path ~topo ~total_flows)

(* Foreground flows share the versus.flow.* families (register-or-retrieve
   by name); the population gets its own meanfield.agg.* entries. Lazy so
   the meanfield.* names only enter the registry — and other experiments'
   metric snapshots — once a mean-field run actually happens. *)
let sent_cf = lazy (Metrics.counter_family "versus.flow.sent")
let delivered_cf = lazy (Metrics.counter_family "versus.flow.delivered")
let queue_drops_cf = lazy (Metrics.counter_family "versus.flow.queue_drops")
let throughput_gf = lazy (Metrics.gauge_family "versus.flow.throughput_bps")
let agg_queue_gf = lazy (Metrics.gauge_family "meanfield.agg.queue_bits")
let agg_goodput_g = lazy (Metrics.gauge "meanfield.agg.goodput_bps")
let agg_offered_g = lazy (Metrics.gauge "meanfield.agg.offered_pps")
let agg_window_g = lazy (Metrics.gauge "meanfield.agg.window_pkts")
let agg_loss_g = lazy (Metrics.gauge "meanfield.agg.loss_prob")
let agg_rtt_g = lazy (Metrics.gauge "meanfield.agg.rtt")
let agg_samples_c = lazy (Metrics.counter "meanfield.agg.samples")

(* Samplers read post-tick aggregate state and run after every network
   event of their instant. *)
let sample_prio = 100

type fg_row = {
  fg_sender : int;
  fg_flow : string;
  fg_sent : int;
  fg_delivered : int;
  fg_throughput_bps : float;
  fg_mean_rtt : float;
}

type summary = {
  m_topo : topo;
  m_background : int;
  m_foreground : int;
  m_duration : float;
  final : Fluid.agg;
  bg_goodput_bps : float;
  bg_queue_bits : float;
  fg_rows : fg_row list;
  ticks : int;
}

let run ?(config = default_config) () =
  if config.background < 0 then invalid_arg "Meanfield.run: background must be non-negative";
  if config.foreground < 0 || config.foreground > 256 then
    invalid_arg "Meanfield.run: foreground must be in 0..256";
  if config.duration <= 0.0 then invalid_arg "Meanfield.run: duration must be positive";
  if config.sample_every <= 0.0 then invalid_arg "Meanfield.run: sample_every must be positive";
  let n = config.foreground in
  let fg_flows = List.init n (fun i -> Flow.Aux i) in
  let total = config.background + n in
  let truth =
    {
      Topology.sources = List.map Topology.endpoint (Flow.Cross :: fg_flows);
      shared = shared_path ~topo:config.topo ~total_flows:total;
    }
  in
  let engine = Engine.create ~seed:config.seed () in
  let compiled = Compiled.compile_exn truth in
  let sent_cs =
    Array.init n (fun i -> Metrics.labeled (Lazy.force sent_cf) [ ("flow", Flow.to_string (Flow.Aux i)) ])
  in
  let delivered_cs =
    Array.init n (fun i -> Metrics.labeled (Lazy.force delivered_cf) [ ("flow", Flow.to_string (Flow.Aux i)) ])
  in
  let delivered_bits = Array.make (max n 1) 0 in
  let drop_counts = Array.make (max n 1) 0 in
  let senders = Array.make (max n 1) None in
  let deliver flow pkt =
    match (flow : Flow.t) with
    | Aux i when i >= 0 && i < n ->
      delivered_bits.(i) <- delivered_bits.(i) + pkt.Packet.bits;
      Metrics.incr delivered_cs.(i);
      (match senders.(i) with
      | Some tcp -> Utc_tcp.Sender.on_delivery tcp pkt
      | None -> ())
    | Primary | Cross | Aux _ -> ()
  in
  (* Runtime journals the drop itself; this only counts it per flow. *)
  let on_drop ~node_id:_ ~reason:_ pkt =
    match pkt.Packet.flow with
    | Flow.Aux i when i >= 0 && i < n -> drop_counts.(i) <- drop_counts.(i) + 1
    | Flow.Primary | Flow.Cross | Flow.Aux _ -> ()
  in
  let fluid =
    Fluid.build ~dt:config.dt engine compiled
      (Runtime.callbacks ~deliver ~on_drop ())
      ~flow:Flow.Cross ~flows:config.background
  in
  List.iteri
    (fun i flow ->
      let tcp =
        Utc_tcp.Sender.create engine
          { Utc_tcp.Sender.default_config with flow }
          ~inject:(fun pkt ->
            Metrics.incr sent_cs.(i);
            Fluid.inject fluid flow pkt)
      in
      senders.(i) <- Some tcp)
    fg_flows;
  Array.iter (function Some tcp -> Utc_tcp.Sender.start tcp | None -> ()) senders;
  (* Steady-state accounting over the second half of the run, plus the
     periodic aggregate sampler feeding metrics and journal marks. *)
  let half_at = config.duration /. 2.0 in
  let half_delivered = ref 0.0 in
  let queue_acc = ref 0.0 in
  let queue_samples = ref 0 in
  ignore
    (Engine.schedule ~prio:sample_prio engine ~at:half_at (fun () ->
         half_delivered := (Fluid.sample fluid).Fluid.delivered_bits));
  let fg_queue_bits node_id = Runtime.queue_bits (Fluid.runtime fluid) ~node_id in
  let total_queue_bits (agg : Fluid.agg) =
    List.fold_left
      (fun acc (id, q) -> acc +. q +. float_of_int (fg_queue_bits id))
      0.0 agg.Fluid.queue_bits
  in
  let rec sample_at k =
    let at = float_of_int k *. config.sample_every in
    if at <= config.duration then
      ignore
        (Engine.schedule ~prio:sample_prio engine ~at (fun () ->
             let agg = Fluid.sample fluid in
             Metrics.set_gauge (Lazy.force agg_goodput_g) agg.Fluid.goodput_bps;
             Metrics.set_gauge (Lazy.force agg_offered_g) agg.Fluid.offered_pps;
             Metrics.set_gauge (Lazy.force agg_window_g) agg.Fluid.mean_window_pkts;
             Metrics.set_gauge (Lazy.force agg_loss_g) agg.Fluid.loss_prob;
             Metrics.set_gauge (Lazy.force agg_rtt_g) agg.Fluid.rtt;
             List.iter
               (fun (id, q) ->
                 Metrics.set_gauge
                   (Metrics.labeled (Lazy.force agg_queue_gf) [ ("station", string_of_int id) ])
                   (q +. float_of_int (fg_queue_bits id)))
               agg.Fluid.queue_bits;
             Metrics.incr (Lazy.force agg_samples_c);
             if at >= half_at then begin
               queue_acc := !queue_acc +. total_queue_bits agg;
               incr queue_samples
             end;
             if Sink.enabled () then begin
               Sink.record ~at (Utc_obs.Event.Mark { name = "meanfield.goodput_bps"; value = agg.Fluid.goodput_bps });
               Sink.record ~at (Utc_obs.Event.Mark { name = "meanfield.loss_prob"; value = agg.Fluid.loss_prob });
               Sink.record ~at (Utc_obs.Event.Mark { name = "meanfield.rtt"; value = agg.Fluid.rtt })
             end;
             sample_at (k + 1)))
  in
  sample_at 1;
  Metrics.span ~name:"meanfield.run"
    ~now:(fun () -> Engine.now engine)
    (fun () -> Engine.run ~until:config.duration engine);
  let final = Fluid.sample fluid in
  let bg_goodput_bps =
    if config.background = 0 then 0.0
    else (final.Fluid.delivered_bits -. !half_delivered) /. (config.duration -. half_at)
  in
  let bg_queue_bits =
    if !queue_samples = 0 then 0.0 else !queue_acc /. float_of_int !queue_samples
  in
  let fg_rows =
    List.mapi
      (fun i flow ->
        let tcp = Option.get senders.(i) in
        let fl = Flow.to_string flow in
        let labels = [ ("flow", fl) ] in
        let throughput = float_of_int delivered_bits.(i) /. config.duration in
        Metrics.set_gauge (Metrics.labeled (Lazy.force throughput_gf) labels) throughput;
        Metrics.add (Metrics.labeled (Lazy.force queue_drops_cf) labels) drop_counts.(i);
        let rtts = List.map snd (Utc_tcp.Sender.rtt_trace tcp) in
        let mean_rtt =
          match Utc_stats.Summary.of_list rtts with
          | Some s -> s.Utc_stats.Summary.mean
          | None -> 0.0
        in
        {
          fg_sender = i;
          fg_flow = fl;
          fg_sent = Utc_tcp.Sender.sent_count tcp;
          fg_delivered = Utc_tcp.Sender.delivered tcp;
          fg_throughput_bps = throughput;
          fg_mean_rtt = mean_rtt;
        })
      fg_flows
  in
  {
    m_topo = config.topo;
    m_background = config.background;
    m_foreground = config.foreground;
    m_duration = config.duration;
    final;
    bg_goodput_bps;
    bg_queue_bits;
    fg_rows;
    ticks = Fluid.steps fluid;
  }

let pp_summary ppf s =
  Format.fprintf ppf "meanfield: topo=%s background=%d foreground=%d duration=%gs@,"
    (topo_to_string s.m_topo) s.m_background s.m_foreground s.m_duration;
  Format.fprintf ppf "  integrator: %d ticks@," s.ticks;
  Format.fprintf ppf
    "  aggregate(final): goodput=%.4g bps offered=%.4g pps window=%.4g pkts loss=%.4g rtt=%.4g s@,"
    s.final.Fluid.goodput_bps s.final.Fluid.offered_pps s.final.Fluid.mean_window_pkts
    s.final.Fluid.loss_prob s.final.Fluid.rtt;
  Format.fprintf ppf "  steady-state: goodput=%.4g bps queue=%.4g bits@," s.bg_goodput_bps
    s.bg_queue_bits;
  List.iter
    (fun r ->
      Format.fprintf ppf "  fg %s: sent=%d delivered=%d throughput=%.4g bps mean_rtt=%.4g s@,"
        r.fg_flow r.fg_sent r.fg_delivered r.fg_throughput_bps r.fg_mean_rtt)
    s.fg_rows

(* --- packet-level truth --- *)

(* Time-weighted mean of a step trace (oldest first, each value holding
   until the next point) over [since, until]. *)
let mean_of_trace trace ~since ~until =
  if until <= since then 0.0
  else begin
    let area = ref 0.0 in
    let last_t = ref 0.0 and last_v = ref 0 in
    let segment t0 t1 v =
      let lo = Float.max t0 since and hi = Float.min t1 until in
      if hi > lo then area := !area +. ((hi -. lo) *. float_of_int v)
    in
    List.iter
      (fun (t, v) ->
        segment !last_t t !last_v;
        last_t := t;
        last_v := v)
      trace;
    segment !last_t until !last_v;
    !area /. (until -. since)
  end

(* Every background flow as a real Reno sender on the direct runtime,
   feasible up to 256 flows: the steady-state aggregate goodput and the
   time-weighted mean of the total queue over the second half. *)
let packet_truth ~seed ~duration ~topo ~background =
  if background < 0 || background > 256 then
    invalid_arg "Meanfield.packet_truth: background must be in 0..256";
  let flows = List.init background (fun i -> Flow.Aux i) in
  let truth_topo =
    {
      Topology.sources = List.map Topology.endpoint flows;
      shared = shared_path ~topo ~total_flows:background;
    }
  in
  let { Testbed.engine; receiver; compiled; _ } as testbed = Testbed.create ~seed truth_topo in
  let traces =
    List.map
      (fun id ->
        let trace = ref [] in
        Utc_core.Receiver.watch_queue receiver ~node_id:id (fun t bits ->
            trace := (t, bits) :: !trace);
        trace)
      (Compiled.station_ids compiled)
  in
  let tcps =
    List.map (fun flow -> Testbed.tcp testbed { Utc_tcp.Sender.default_config with flow }) flows
  in
  List.iter Utc_tcp.Sender.start tcps;
  Engine.run ~until:duration engine;
  let since = duration /. 2.0 in
  let goodput =
    List.fold_left
      (fun acc flow -> acc +. Utc_core.Receiver.throughput receiver flow ~since ~until:duration)
      0.0 flows
  in
  let queue =
    List.fold_left
      (fun acc trace -> acc +. mean_of_trace (List.rev !trace) ~since ~until:duration)
      0.0 traces
  in
  (goodput, queue)

type agreement = {
  a_topo : topo;
  a_n : int;
  fluid_goodput_bps : float;
  packet_goodput_bps : float;
  goodput_rel_err : float;
  fluid_queue_bits : float;
  packet_queue_bits : float;
  queue_frac_of_buffer : float;
}

let validate ?(seed = 1) ?(duration = 120.0) ~topo ~n () =
  let fluid_summary =
    run
      ~config:{ default_config with seed; duration; background = n; foreground = 0; topo }
      ()
  in
  let packet_goodput, packet_queue = packet_truth ~seed ~duration ~topo ~background:n in
  let fluid_goodput = fluid_summary.bg_goodput_bps in
  let goodput_rel_err =
    if packet_goodput > 0.0 then Float.abs (fluid_goodput -. packet_goodput) /. packet_goodput
    else Float.abs fluid_goodput
  in
  let cap = float_of_int (buffer_capacity ~topo ~total_flows:n) in
  {
    a_topo = topo;
    a_n = n;
    fluid_goodput_bps = fluid_goodput;
    packet_goodput_bps = packet_goodput;
    goodput_rel_err;
    fluid_queue_bits = fluid_summary.bg_queue_bits;
    packet_queue_bits = packet_queue;
    queue_frac_of_buffer = Float.abs (fluid_summary.bg_queue_bits -. packet_queue) /. cap;
  }

let pp_agreement ppf a =
  Format.fprintf ppf
    "%s N=%d: goodput fluid=%.4g packet=%.4g (rel err %.3f) queue fluid=%.4g packet=%.4g (%.3f \
     of buffer)"
    (topo_to_string a.a_topo) a.a_n a.fluid_goodput_bps a.packet_goodput_bps a.goodput_rel_err
    a.fluid_queue_bits a.packet_queue_bits a.queue_frac_of_buffer

(* --- benchmark --- *)

type bench_row = {
  b_n : int;
  b_wall_s : float;
  b_ticks : int;
  b_goodput_bps : float;
}

let bench () =
  List.map
    (fun n ->
      let started = Utc_obs.Obs_clock.now () in
      let s =
        run
          ~config:
            {
              default_config with
              background = n;
              foreground = 0;
              duration = 60.0;
              sample_every = 10.0;
            }
          ()
      in
      {
        b_n = n;
        b_wall_s = Utc_obs.Obs_clock.elapsed_since started;
        b_ticks = s.ticks;
        b_goodput_bps = s.bg_goodput_bps;
      })
    [ 1_000; 10_000; 100_000; 1_000_000 ]

let bench_to_json rows =
  let row r =
    Printf.sprintf "{\"background\":%d,\"wall_seconds\":%.6f,\"ticks\":%d,\"goodput_bps\":%.6g}"
      r.b_n r.b_wall_s r.b_ticks r.b_goodput_bps
  in
  let max_n = List.fold_left (fun acc r -> max acc r.b_n) 0 rows in
  Printf.sprintf "{\"benchmark\":\"meanfield\",\"max_background\":%d,\"rows\":[%s]}\n" max_n
    (String.concat "," (List.map row rows))

let write_bench_json ~path rows =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (bench_to_json rows))

let pp_bench ppf rows =
  Format.fprintf ppf "%12s %12s %10s %14s@." "background" "wall (s)" "ticks" "goodput (bps)";
  List.iter
    (fun r -> Format.fprintf ppf "%12d %12.3f %10d %14.4g@." r.b_n r.b_wall_s r.b_ticks r.b_goodput_bps)
    rows
