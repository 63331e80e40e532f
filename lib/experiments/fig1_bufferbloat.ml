open Utc_net
module Engine = Utc_sim.Engine
module Runtime = Utc_elements.Runtime

(* The path every run uses: a 1 Mbit/s link with 3 s of buffer and
   30 ms of one-way propagation. *)
let rate_bps = 1_000_000.0
let buffer_bits = 3_000_000
let prop_delay = 0.03

type config = {
  discipline : Topology.discipline;
  duration : float;
  seed : int;
  make_cc : unit -> Utc_tcp.Cc.t;
}

let default =
  {
    discipline = Arq { try_loss = 0.15; per_try_overhead = 0.01 };
    duration = 250.0;
    seed = 1;
    make_cc = (fun () -> Utc_tcp.Cc.reno ());
  }

type result = {
  config : config;
  rtt : (float * float) list;
  cwnd : (float * float) list;
  delivered : int;
  retransmissions : int;
  timeouts : int;
  link_transmissions : int;
  queue_max_bits : int;
  drops : int;
}

let run config =
  let engine = Engine.create ~seed:config.seed () in
  let sender_cell = ref None in
  (* Data path: TCP -> one station (deep buffer; by default ARQ hiding
     radio loss) -> propagation delay -> receiver; ACKs return instantly.
     The delay lives in the delivery callback: as a [Delay] node it would
     take the station's place as the first consumer of the engine's
     generator. *)
  let truth =
    {
      Topology.sources = [ Topology.endpoint Flow.Primary ];
      shared =
        Topology.station ~capacity_bits:buffer_bits ~discipline:config.discipline ~rate_bps ();
    }
  in
  let deliver _ pkt =
    ignore
      (Engine.schedule_after ~prio:(Evprio.arrival pkt.Packet.flow) engine ~delay:prop_delay
         (fun () ->
           match !sender_cell with
           | Some sender -> Utc_tcp.Sender.on_delivery sender pkt
           | None -> ()))
  in
  let drops = ref 0 in
  let on_drop ~node_id:_ ~reason:_ _ = incr drops in
  let runtime =
    Runtime.build engine (Compiled.compile_exn truth) (Runtime.callbacks ~deliver ~on_drop ())
  in
  let queue_max = ref 0 in
  let inject pkt =
    Runtime.inject runtime Flow.Primary pkt;
    queue_max := Stdlib.max !queue_max (Runtime.queue_bits runtime ~node_id:0)
  in
  let sender_config = { Utc_tcp.Sender.default_config with make_cc = config.make_cc } in
  let sender = Utc_tcp.Sender.create engine sender_config ~inject in
  sender_cell := Some sender;
  Utc_tcp.Sender.start sender;
  Engine.run ~until:config.duration engine;
  {
    config;
    rtt = Utc_tcp.Sender.rtt_trace sender;
    cwnd = Utc_tcp.Sender.cwnd_trace sender;
    delivered = Utc_tcp.Sender.delivered sender;
    retransmissions = Utc_tcp.Sender.retransmissions sender;
    timeouts = Utc_tcp.Sender.timeouts sender;
    link_transmissions = Runtime.transmissions runtime ~node_id:0;
    queue_max_bits = !queue_max;
    drops = !drops;
  }

let pp_report ppf result =
  Format.fprintf ppf "Figure 1: RTT during a TCP download over an LTE-like path@.";
  let pp_link ppf = function
    | Topology.Arq { try_loss; _ } ->
      Format.fprintf ppf "ARQ link (%.0f%% radio loss hidden)" (try_loss *. 100.0)
    | discipline -> Format.fprintf ppf "%a link" Topology.pp_discipline discipline
  in
  Format.fprintf ppf "substitute: %s over %.0f kbit/s %a, %.1f s of buffer@.@." "Reno"
    (rate_bps /. 1000.0) pp_link result.config.discipline
    (float_of_int buffer_bits /. rate_bps);
  let rtts = List.map snd result.rtt in
  let () =
    match Utc_stats.Summary.of_list rtts with
    | Some summary -> Format.fprintf ppf "RTT: %a@." Utc_stats.Summary.pp summary
    | None -> Format.fprintf ppf "RTT: no samples@."
  in
  Format.fprintf ppf
    "delivered=%d pkts, tcp-rtx=%d, timeouts=%d, radio tx per pkt=%.2f, max queue=%.2f s@.@."
    result.delivered result.retransmissions result.timeouts
    (float_of_int result.link_transmissions /. float_of_int (Stdlib.max 1 result.delivered))
    (float_of_int result.queue_max_bits /. rate_bps);
  Format.fprintf ppf "%s@."
    (Utc_stats.Ascii_plot.render_one ~x_label:"time (s)" ~y_label:"RTT (s)" ~log_y:true
       ~label:"rtt" result.rtt);
  Format.fprintf ppf
    "(paper: RTT on a log scale rising from ~0.1-0.2 s to multiple seconds and@.";
  Format.fprintf ppf " staying there for the whole download)@."
