open Utc_net
module Engine = Utc_sim.Engine
module Belief = Utc_inference.Belief
module Priors = Utc_inference.Priors

type share = {
  label : string;
  primary_bps : float;
  other_bps : float;
  jain : float;
  drops : int;
  rejected_updates : int;
}

(* Under misspecification the belief cannot converge, so a full grid just
   burns time; a thinned prior and tighter caps keep the probe honest and
   fast. *)
let thinned_prior () =
  let cells = List.filteri (fun i _ -> i mod 7 = 0) (Priors.paper_prior ()) in
  let w = 1.0 /. float_of_int (List.length cells) in
  List.map (fun (p, _) -> (p, w)) cells

let versus_forward_config = { Utc_model.Forward.default_config with max_branches = 64 }

(* Every ISender in these probes weights cross traffic as the paper's
   default sender does. *)
let alpha = 1.0

let isender_vs_tcp ?(seed = 9) ?(duration = 300.0) () =
  let truth =
    {
      Topology.sources = [ Topology.endpoint Flow.Primary; Topology.endpoint (Flow.Aux 0) ];
      shared =
        Topology.series
          [ Topology.buffer ~capacity_bits:96_000; Topology.throughput ~rate_bps:12_000.0 ];
    }
  in
  let testbed = Testbed.create ~seed truth in
  (* The ISender keeps its §4 model family: TCP's traffic must be
     explained as an intermittent pinger, i.e. deliberate
     misspecification. *)
  let belief =
    Belief.create ~max_hyps:2_000
      (Priors.seeds ~config:versus_forward_config (thinned_prior ()))
  in
  let utility = Utc_utility.Utility.make ~alpha ~cross_discounted:true () in
  let planner =
    { Utc_core.Planner.default_config with utility; delays = Harness.paper_delays }
  in
  let isender =
    Testbed.isender testbed { Utc_core.Isender.default_config with planner } ~belief
  in
  let tcp = Testbed.tcp testbed { Utc_tcp.Sender.default_config with flow = Flow.Aux 0 } in
  Utc_core.Isender.start isender;
  Utc_tcp.Sender.start tcp;
  Engine.run ~until:duration testbed.Testbed.engine;
  let receiver = testbed.Testbed.receiver in
  let primary_bps = Utc_core.Receiver.throughput receiver Flow.Primary ~since:0.0 ~until:duration in
  let other_bps = Utc_core.Receiver.throughput receiver (Flow.Aux 0) ~since:0.0 ~until:duration in
  {
    label = Printf.sprintf "ISender (alpha=%g) vs Reno" alpha;
    primary_bps;
    other_bps;
    jain = Utc_stats.Fairness.jain [ primary_bps; other_bps ];
    drops = List.length (Utc_core.Receiver.drops receiver);
    rejected_updates = Utc_core.Isender.rejected_updates isender;
  }

(* Two ISenders share the bottleneck; each keeps the paper's model
   family, so each explains the other's traffic as an intermittent
   pinger. Internally each sender works in its own frame (it is Primary
   in its own model); only egress packets are rewritten to the real
   flow. *)
let isender_vs_isender ?(seed = 9) ?(duration = 300.0) () =
  let truth =
    {
      Topology.sources = [ Topology.endpoint Flow.Primary; Topology.endpoint (Flow.Aux 0) ];
      shared =
        Topology.series
          [ Topology.buffer ~capacity_bits:96_000; Topology.throughput ~rate_bps:12_000.0 ];
    }
  in
  let { Testbed.engine; receiver; runtime; _ } = Testbed.create ~seed truth in
  let utility = Utc_utility.Utility.make ~alpha ~cross_discounted:true () in
  let planner =
    { Utc_core.Planner.default_config with utility; delays = Harness.paper_delays }
  in
  let make_sender flow =
    let belief =
      Belief.create ~max_hyps:2_000 (Priors.seeds ~config:versus_forward_config (thinned_prior ()))
    in
    let isender =
      Utc_core.Isender.create engine
        { Utc_core.Isender.default_config with planner }
        ~belief
        ~inject:(fun pkt ->
          Utc_elements.Runtime.inject runtime flow { pkt with Packet.flow })
    in
    Utc_core.Receiver.subscribe receiver flow (fun _ pkt ->
        Utc_core.Isender.on_ack isender pkt);
    isender
  in
  let a = make_sender Flow.Primary in
  let b = make_sender (Flow.Aux 0) in
  Utc_core.Isender.start a;
  Utc_core.Isender.start b;
  Engine.run ~until:duration engine;
  let primary_bps = Utc_core.Receiver.throughput receiver Flow.Primary ~since:0.0 ~until:duration in
  let other_bps = Utc_core.Receiver.throughput receiver (Flow.Aux 0) ~since:0.0 ~until:duration in
  {
    label = Printf.sprintf "ISender vs ISender (alpha=%g each)" alpha;
    primary_bps;
    other_bps;
    jain = Utc_stats.Fairness.jain [ primary_bps; other_bps ];
    drops = List.length (Utc_core.Receiver.drops receiver);
    rejected_updates =
      Utc_core.Isender.rejected_updates a + Utc_core.Isender.rejected_updates b;
  }

(* --- many senders: the §3.5 contention experiment scaled out --- *)

type flow_row = {
  sender : int;
  flow : string;
  f_sent : int;
  f_delivered : int;
  f_throughput_bps : float;
  f_mean_rtt : float;
  f_queue_drops : int;
}

type many = {
  senders : int;
  many_duration : float;
  rows : flow_row list;  (** one per sender, in sender order *)
  many_jain : float;
  total_drops : int;
}

(* Per-flow accounting lives in labeled families: one child per sender
   flow, resolved once per run and cached, so the hot-path cost is an
   ordinary counter increment. At the default 1024-child cap the full
   256-sender workload fits with room to spare; anything wider degrades
   to the [other] child instead of unbounded registry growth. *)
let sent_cf = Utc_obs.Metrics.counter_family "versus.flow.sent"
let delivered_cf = Utc_obs.Metrics.counter_family "versus.flow.delivered"
let queue_drops_cf = Utc_obs.Metrics.counter_family "versus.flow.queue_drops"
let throughput_gf = Utc_obs.Metrics.gauge_family "versus.flow.throughput_bps"

let rtt_hf =
  Utc_obs.Metrics.histogram_family "versus.flow.rtt"
    ~buckets:[ 0.01; 0.03; 0.1; 0.3; 1.0; 3.0; 10.0 ]

(* The §4 bottleneck scaled with the population: per-flow fair share
   stays 12 kbps and per-flow buffer quota 4 packets, so what changes
   with N is contention dynamics, not starvation. *)
let scaled_bottleneck ~flows =
  let n = max flows 1 in
  (12_000.0 *. float_of_int n, 48_000 * n)

let many_senders ?(seed = 9) ?(duration = 60.0) ~senders () =
  if senders < 1 || senders > 256 then
    invalid_arg "Versus.many_senders: senders must be in 1..256";
  let n = senders in
  let flows = List.init n (fun i -> Flow.Aux i) in
  let rate_bps, capacity_bits = scaled_bottleneck ~flows:n in
  let truth =
    {
      Topology.sources = List.map Topology.endpoint flows;
      shared = Topology.series [ Topology.buffer ~capacity_bits; Topology.throughput ~rate_bps ];
    }
  in
  let { Testbed.engine; receiver; runtime; _ } = Testbed.create ~seed truth in
  let tcps =
    List.map
      (fun flow ->
        let labels = [ ("flow", Flow.to_string flow) ] in
        let sent_c = Utc_obs.Metrics.labeled sent_cf labels in
        let delivered_c = Utc_obs.Metrics.labeled delivered_cf labels in
        let tcp =
          Utc_tcp.Sender.create engine
            { Utc_tcp.Sender.default_config with flow }
            ~inject:(fun pkt ->
              Utc_obs.Metrics.incr sent_c;
              Utc_elements.Runtime.inject runtime flow pkt)
        in
        Utc_core.Receiver.subscribe receiver flow (fun _ pkt ->
            Utc_obs.Metrics.incr delivered_c;
            Utc_tcp.Sender.on_delivery tcp pkt);
        tcp)
      flows
  in
  List.iter Utc_tcp.Sender.start tcps;
  Engine.run ~until:duration engine;
  (* Serial epilogue: fold the drop log once, then publish per-flow
     results into the families. *)
  let drop_counts = Array.make n 0 in
  let all_drops = Utc_core.Receiver.drops receiver in
  List.iter
    (fun (_, _, _, pkt) ->
      match pkt.Utc_net.Packet.flow with
      | Flow.Aux i when i >= 0 && i < n -> drop_counts.(i) <- drop_counts.(i) + 1
      | _ -> ())
    all_drops;
  let rows =
    List.mapi
      (fun i (flow, tcp) ->
        let fl = Flow.to_string flow in
        let labels = [ ("flow", fl) ] in
        let throughput =
          Utc_core.Receiver.throughput receiver flow ~since:0.0 ~until:duration
        in
        let rtts = List.map snd (Utc_tcp.Sender.rtt_trace tcp) in
        let mean_rtt =
          match Utc_stats.Summary.of_list rtts with
          | Some s -> s.Utc_stats.Summary.mean
          | None -> 0.0
        in
        Utc_obs.Metrics.set_gauge (Utc_obs.Metrics.labeled throughput_gf labels) throughput;
        Utc_obs.Metrics.add (Utc_obs.Metrics.labeled queue_drops_cf labels) drop_counts.(i);
        let rtt_h = Utc_obs.Metrics.labeled rtt_hf labels in
        List.iter (Utc_obs.Metrics.observe rtt_h) rtts;
        {
          sender = i;
          flow = fl;
          f_sent = Utc_tcp.Sender.sent_count tcp;
          f_delivered = Utc_tcp.Sender.delivered tcp;
          f_throughput_bps = throughput;
          f_mean_rtt = mean_rtt;
          f_queue_drops = drop_counts.(i);
        })
      (List.combine flows tcps)
  in
  {
    senders = n;
    many_duration = duration;
    rows;
    many_jain = Utc_stats.Fairness.jain (List.map (fun r -> r.f_throughput_bps) rows);
    total_drops = List.length all_drops;
  }

type aqm_row = {
  discipline : string;
  throughput_bps : float;
  mean_rtt : float;
  p95_rtt : float;
  aqm_drops : int;
}

(* Reno through the Figure 1 path with the station's discipline
   swapped. *)
let tcp_under_aqm ?(seed = 9) ?(duration = 200.0) () =
  List.map
    (fun (label, discipline) ->
      let r = Fig1_bufferbloat.run { Fig1_bufferbloat.default with seed; duration; discipline } in
      let rtts = List.map snd r.Fig1_bufferbloat.rtt in
      let mean_rtt, p95_rtt =
        match Utc_stats.Summary.of_list rtts with
        | Some s -> (s.Utc_stats.Summary.mean, Utc_stats.Summary.percentile rtts ~q:0.95)
        | None -> (0.0, 0.0)
      in
      {
        discipline = label;
        throughput_bps =
          float_of_int (r.Fig1_bufferbloat.delivered * Packet.default_bits) /. duration;
        mean_rtt;
        p95_rtt;
        aqm_drops = r.Fig1_bufferbloat.drops;
      })
    [ ("tail-drop", Topology.Fifo); ("RED", Topology.Red); ("CoDel", Topology.Codel) ]

let pp_share ppf share =
  Format.fprintf ppf
    "%s: primary %.0f bps, other %.0f bps, Jain %.3f, drops %d, rejected updates %d@."
    share.label share.primary_bps share.other_bps share.jain share.drops share.rejected_updates

let pp_many ppf m =
  Format.fprintf ppf "%d Reno senders sharing a %.0f bps bottleneck for %gs@." m.senders
    (fst (scaled_bottleneck ~flows:m.senders))
    m.many_duration;
  Format.fprintf ppf "Jain %.3f, %d queue drops total@." m.many_jain m.total_drops;
  let tps = List.map (fun r -> r.f_throughput_bps) m.rows in
  (match Utc_stats.Summary.of_list tps with
  | Some s ->
    Format.fprintf ppf "per-flow goodput: mean %.0f bps, min %.0f, max %.0f@."
      s.Utc_stats.Summary.mean s.Utc_stats.Summary.min s.Utc_stats.Summary.max
  | None -> ());
  if m.senders <= 16 then begin
    Format.fprintf ppf "%-8s %-8s %8s %10s %14s %10s %8s@." "sender" "flow" "sent" "delivered"
      "goodput(bps)" "mean RTT" "drops";
    List.iter
      (fun r ->
        Format.fprintf ppf "%-8d %-8s %8d %10d %14.0f %10.3f %8d@." r.sender r.flow r.f_sent
          r.f_delivered r.f_throughput_bps r.f_mean_rtt r.f_queue_drops)
      m.rows
  end
  else
    Format.fprintf ppf
      "(%d rows; per-flow series live in the metric families — utc metrics versus --senders %d \
       --json)@."
      m.senders m.senders

let pp_aqm ppf rows =
  Format.fprintf ppf "%-10s %14s %10s %10s %8s@." "discipline" "goodput(bps)" "mean RTT" "p95 RTT"
    "drops";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %14.0f %10.3f %10.3f %8d@." r.discipline r.throughput_bps
        r.mean_rtt r.p95_rtt r.aqm_drops)
    rows
