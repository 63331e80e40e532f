open Utc_net
module Engine = Utc_sim.Engine
module Tb = Utc_sim.Timebase

type config = {
  flow : Flow.t;
  make_cc : unit -> Cc.t;
}

let default_config = { flow = Flow.Primary; make_cc = (fun () -> Cc.reno ()) }

(* The 1,500-byte packet of the §4 experiment. *)
let segment_bits = Packet.default_bits
let dupack_threshold = 3

type seg_state = {
  mutable first_sent : Tb.t;
  mutable retransmitted : bool;
}

type t = {
  engine : Engine.t;
  config : config;
  inject : Packet.t -> unit;
  cc : Cc.t;
  rto : Rto.t;
  segs : (int, seg_state) Hashtbl.t;
  (* receiver half *)
  received : (int, unit) Hashtbl.t;
  mutable next_expected : int; (* cumulative ACK value *)
  (* sender half *)
  mutable snd_nxt : int; (* next sequence to transmit (rewound on RTO) *)
  mutable snd_max : int; (* 1 + highest sequence ever transmitted *)
  mutable high_ack : int; (* highest cumulative ACK seen *)
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable timer : Engine.handle option;
  mutable sent_total : int;
  mutable retransmissions : int;
  mutable timeouts : int;
  mutable rtt_trace : (Tb.t * float) list; (* newest first *)
  mutable cwnd_watchers : (Tb.t -> float -> unit) list; (* registration order *)
}

let create engine config ~inject =
  {
    engine;
    config;
    inject;
    cc = config.make_cc ();
    rto = Rto.create ();
    segs = Hashtbl.create 256;
    received = Hashtbl.create 256;
    next_expected = 0;
    snd_nxt = 0;
    snd_max = 0;
    high_ack = 0;
    dupacks = 0;
    in_recovery = false;
    timer = None;
    sent_total = 0;
    retransmissions = 0;
    timeouts = 0;
    rtt_trace = [];
    cwnd_watchers = [];
  }

let cwnd t = t.cc.Cc.cwnd ()
let in_flight t = t.snd_nxt - t.high_ack
let delivered t = t.high_ack
let sent_count t = t.sent_total
let retransmissions t = t.retransmissions
let timeouts t = t.timeouts
let rtt_trace t = List.rev t.rtt_trace
let watch_cwnd t f = t.cwnd_watchers <- t.cwnd_watchers @ [ f ]

let rec notify_cwnd now cwnd = function
  | [] -> ()
  | f :: rest ->
    f now cwnd;
    notify_cwnd now cwnd rest

(* A window sample for the observers; with none, nothing is read. *)
let sample_cwnd t now =
  match t.cwnd_watchers with
  | [] -> ()
  | watchers -> notify_cwnd now (cwnd t) watchers

let sends_c = Utc_obs.Metrics.counter "tcp.sender.sends"
let retransmissions_c = Utc_obs.Metrics.counter "tcp.sender.retransmissions"
let timeouts_c = Utc_obs.Metrics.counter "tcp.sender.timeouts"

let transmit t seq ~retransmission =
  let now = Engine.now t.engine in
  let () =
    match Hashtbl.find_opt t.segs seq with
    | None -> Hashtbl.replace t.segs seq { first_sent = now; retransmitted = false }
    | Some seg -> seg.retransmitted <- true
  in
  t.sent_total <- t.sent_total + 1;
  if retransmission then begin
    t.retransmissions <- t.retransmissions + 1;
    Utc_obs.Metrics.incr retransmissions_c
  end;
  let pkt = Packet.make ~bits:segment_bits ~flow:t.config.flow ~seq ~sent_at:now () in
  Utc_obs.Metrics.incr sends_c;
  if Utc_obs.Sink.enabled () then
    Utc_obs.Sink.record
      ~flow:(Flow.to_string t.config.flow)
      ~at:now
      (Utc_obs.Event.Packet_send { seq; bits = segment_bits });
  t.inject pkt

let cancel_timer t =
  match t.timer with
  | None -> ()
  | Some handle ->
    Engine.cancel handle;
    t.timer <- None

let rec arm_timer t =
  cancel_timer t;
  if t.snd_max - t.high_ack > 0 then begin
    let delay = Rto.rto t.rto in
    t.timer <-
      Some (Engine.schedule_after ~prio:Evprio.endpoint_wakeup t.engine ~delay (fun () -> on_timeout t))
  end

and on_timeout t =
  t.timer <- None;
  if t.snd_max - t.high_ack > 0 then begin
    Utc_obs.Metrics.span ~name:"tcp.on_timeout" ~now:(fun () -> Engine.now t.engine) @@ fun () ->
    t.timeouts <- t.timeouts + 1;
    Utc_obs.Metrics.incr timeouts_c;
    if Utc_obs.Sink.enabled () then
      Utc_obs.Sink.record
        ~flow:(Flow.to_string t.config.flow)
        ~at:(Engine.now t.engine)
        (Utc_obs.Event.Timeout { seq = t.high_ack });
    Rto.on_timeout t.rto;
    t.cc.Cc.on_timeout ();
    t.in_recovery <- false;
    t.dupacks <- 0;
    (* Go-back-N: rewind the send pointer to the hole and retransmit
       forward; cumulative ACKs jump over runs the receiver already
       holds. *)
    t.snd_nxt <- t.high_ack;
    sample_cwnd t (Engine.now t.engine);
    transmit t t.snd_nxt ~retransmission:true;
    t.snd_nxt <- t.snd_nxt + 1;
    arm_timer t
  end

let rec fill_window t =
  let allowance = cwnd t +. float_of_int (if t.in_recovery then t.dupacks else 0) in
  if float_of_int (in_flight t) +. 1.0 <= allowance then begin
    transmit t t.snd_nxt ~retransmission:(t.snd_nxt < t.snd_max);
    t.snd_nxt <- t.snd_nxt + 1;
    t.snd_max <- Stdlib.max t.snd_max t.snd_nxt;
    fill_window t
  end

(* Cumulative ACK processing, on the instant return path. *)
let on_ack t ack =
  let now = Engine.now t.engine in
  if ack > t.high_ack then begin
    let newly_acked = ack - t.high_ack in
    if Utc_obs.Sink.enabled () then
      Utc_obs.Sink.record
        ~flow:(Flow.to_string t.config.flow)
        ~at:now
        (Utc_obs.Event.Packet_ack { seq = ack });
    (* Karn: sample RTT only from never-retransmitted segments. *)
    let rtt_sample =
      match Hashtbl.find_opt t.segs (ack - 1) with
      | Some seg when not seg.retransmitted ->
        let rtt = now -. seg.first_sent in
        Rto.observe t.rto ~rtt;
        t.rtt_trace <- (now, rtt) :: t.rtt_trace;
        Some rtt
      | Some _ | None -> None
    in
    for seq = t.high_ack to ack - 1 do
      Hashtbl.remove t.segs seq
    done;
    t.high_ack <- ack;
    t.snd_nxt <- Stdlib.max t.snd_nxt ack;
    (* Classic Reno leaves fast recovery on the first new ACK (RFC 5681);
       remaining holes cost further dupack episodes or a timeout. *)
    t.in_recovery <- false;
    t.dupacks <- 0;
    t.cc.Cc.on_ack ~newly_acked ~rtt:(Option.value rtt_sample ~default:0.0);
    sample_cwnd t now;
    arm_timer t;
    fill_window t
  end
  else if in_flight t > 0 then begin
    t.dupacks <- t.dupacks + 1;
    if (not t.in_recovery) && t.dupacks >= dupack_threshold then begin
      t.in_recovery <- true;
      t.cc.Cc.on_loss_event ();
      sample_cwnd t now;
      transmit t t.high_ack ~retransmission:true;
      arm_timer t
    end
    else if t.in_recovery then fill_window t
  end;
  if in_flight t = 0 && t.snd_max > t.high_ack then
    (* Nothing we believe outstanding but holes remain: rely on the
       retransmission timer, which must therefore be armed. *)
    if t.timer = None then arm_timer t

(* lint:hotpath -- runs once per delivered packet; the reassembly loop
   must stay allocation-free. *)
let on_delivery t pkt =
  (* The Reno sender's per-packet hot path: reassembly, cumulative ACK
     processing, and the window refill it triggers. *)
  Utc_obs.Metrics.span ~name:"tcp.on_delivery" ~now:(fun () -> Engine.now t.engine) @@ fun () ->
  let seq = pkt.Packet.seq in
  if seq >= t.next_expected && not (Hashtbl.mem t.received seq) then begin
    Hashtbl.replace t.received seq ();
    while Hashtbl.mem t.received t.next_expected do
      Hashtbl.remove t.received t.next_expected;
      t.next_expected <- t.next_expected + 1
    done
  end;
  (* Instant, lossless acknowledgment (every packet), as in the paper's
     preliminary experiments. *)
  on_ack t t.next_expected

let start t =
  ignore
    (Engine.schedule ~prio:Evprio.endpoint_wakeup t.engine ~at:(Engine.now t.engine) (fun () ->
         fill_window t;
         arm_timer t))
