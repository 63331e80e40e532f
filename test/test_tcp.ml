(* Tests for the TCP baselines: RTO estimation, congestion-control
   variants, and the reliable sender end-to-end on simulated paths. *)
open Utc_net
module Engine = Utc_sim.Engine
module Rto = Utc_tcp.Rto
module Cc = Utc_tcp.Cc
module Sender = Utc_tcp.Sender

(* --- Rto --- *)

let rto_initial () =
  let rto = Rto.create () in
  Alcotest.(check (float 1e-9)) "initial" 1.0 (Rto.rto rto);
  Alcotest.(check bool) "no srtt" true (Rto.srtt rto = None)

let rto_first_sample () =
  let rto = Rto.create () in
  Rto.observe rto ~rtt:0.5;
  Alcotest.(check bool) "srtt = rtt" true (Rto.srtt rto = Some 0.5);
  Alcotest.(check bool) "rttvar = rtt/2" true (Rto.rttvar rto = Some 0.25);
  (* RTO = srtt + 4*rttvar = 0.5 + 1.0. *)
  Alcotest.(check (float 1e-9)) "rto" 1.5 (Rto.rto rto)

let rto_smoothing () =
  let rto = Rto.create () in
  Rto.observe rto ~rtt:1.0;
  Rto.observe rto ~rtt:1.0;
  Rto.observe rto ~rtt:1.0;
  (* Constant samples: srtt -> 1, rttvar -> small, rto -> near srtt floor. *)
  let srtt = Option.get (Rto.srtt rto) in
  Alcotest.(check (float 1e-9)) "srtt converged" 1.0 srtt;
  Alcotest.(check bool) "rto above srtt" true (Rto.rto rto >= 1.0)

let rto_backoff_and_clamp () =
  let rto = Rto.create () in
  Rto.on_timeout rto;
  Alcotest.(check (float 1e-9)) "doubled" 2.0 (Rto.rto rto);
  (* 4, 8, 16, 32, then 64 clamped. *)
  for _ = 1 to 5 do
    Rto.on_timeout rto
  done;
  Alcotest.(check (float 1e-9)) "clamped at max" 60.0 (Rto.rto rto);
  Rto.on_timeout rto;
  Alcotest.(check (float 1e-9)) "stays at max" 60.0 (Rto.rto rto)

let rto_min_clamp () =
  let rto = Rto.create () in
  (* srtt + 4 rttvar = 0.03 s, under the floor. *)
  Rto.observe rto ~rtt:0.01;
  Alcotest.(check (float 1e-9)) "floor" 0.2 (Rto.rto rto)

(* --- Cc variants --- *)

let tahoe_slow_start_then_collapse () =
  let cc = Cc.tahoe () in
  Alcotest.(check (float 1e-9)) "initial" 1.0 (cc.Cc.cwnd ());
  cc.Cc.on_ack ~newly_acked:1 ~rtt:0.1;
  cc.Cc.on_ack ~newly_acked:2 ~rtt:0.1;
  Alcotest.(check (float 1e-9)) "slow start" 4.0 (cc.Cc.cwnd ());
  cc.Cc.on_loss_event ();
  Alcotest.(check (float 1e-9)) "collapse to 1" 1.0 (cc.Cc.cwnd ());
  Alcotest.(check (float 1e-9)) "ssthresh = cwnd/2" 2.0 (cc.Cc.ssthresh ())

let reno_halves_on_dupack () =
  let cc = Cc.reno () in
  (* Slow start from 1 to 16. *)
  cc.Cc.on_ack ~newly_acked:15 ~rtt:0.1;
  cc.Cc.on_loss_event ();
  Alcotest.(check (float 1e-9)) "fast recovery" 8.0 (cc.Cc.cwnd ());
  cc.Cc.on_timeout ();
  Alcotest.(check (float 1e-9)) "timeout to 1" 1.0 (cc.Cc.cwnd ())

let reno_congestion_avoidance () =
  let cc = Cc.reno () in
  cc.Cc.on_ack ~newly_acked:9 ~rtt:0.1;
  cc.Cc.on_loss_event ();
  (* cwnd = ssthresh = 5: now in congestion avoidance. *)
  let before = cc.Cc.cwnd () in
  cc.Cc.on_ack ~newly_acked:1 ~rtt:0.1;
  Alcotest.(check (float 1e-9)) "+1/cwnd" (before +. (1.0 /. before)) (cc.Cc.cwnd ())

let vegas_backs_off_on_delay () =
  let cc = Cc.vegas () in
  (* Establish baseRTT = 0.1 and slow-start to 11 on an empty queue,
     then see inflated RTTs: diff > beta. *)
  cc.Cc.on_ack ~newly_acked:9 ~rtt:0.1;
  cc.Cc.on_ack ~newly_acked:1 ~rtt:0.1;
  let before = cc.Cc.cwnd () in
  for _ = 1 to 50 do
    cc.Cc.on_ack ~newly_acked:1 ~rtt:0.5
  done;
  Alcotest.(check bool) "decreases under queueing" true (cc.Cc.cwnd () < before)

let vegas_grows_when_uncongested () =
  let cc = Cc.vegas () in
  cc.Cc.on_ack ~newly_acked:3 ~rtt:0.1;
  cc.Cc.on_ack ~newly_acked:1 ~rtt:0.1;
  let before = cc.Cc.cwnd () in
  for _ = 1 to 20 do
    cc.Cc.on_ack ~newly_acked:1 ~rtt:0.101
  done;
  Alcotest.(check bool) "grows with empty queue" true (cc.Cc.cwnd () > before)

(* --- Sender end-to-end --- *)

(* A clean path: rate-limited station + propagation delay, no loss. *)
let clean_path engine ~rate_bps ~capacity_bits ~prop ~sender_cell =
  let deliver _ pkt =
    ignore
      (Engine.schedule_after ~prio:(Evprio.arrival pkt.Packet.flow) engine ~delay:prop (fun () ->
           match !sender_cell with
           | Some sender -> Sender.on_delivery sender pkt
           | None -> ()))
  in
  let truth =
    {
      Topology.sources = [ Topology.endpoint Flow.Primary ];
      shared = Topology.station ~capacity_bits ~rate_bps ();
    }
  in
  let runtime =
    Utc_elements.Runtime.build engine (Compiled.compile_exn truth)
      (Utc_elements.Runtime.callbacks ~deliver ())
  in
  Utc_elements.Runtime.inject runtime Flow.Primary

let run_sender ?(duration = 60.0) ?(config = Sender.default_config) ?(on_send = ignore)
    ?(watch = ignore) ~rate_bps ~capacity_bits ~prop () =
  let engine = Engine.create ~seed:6 () in
  let sender_cell = ref None in
  let inject = clean_path engine ~rate_bps ~capacity_bits ~prop ~sender_cell in
  let inject pkt =
    on_send (Engine.now engine);
    inject pkt
  in
  let sender = Sender.create engine config ~inject in
  sender_cell := Some sender;
  watch sender;
  Sender.start sender;
  Engine.run ~until:duration engine;
  sender

let classic_reno_multidrop_collapse () =
  (* Classic Reno repairs one hole per recovery episode; a slow-start
     overshoot with dozens of drops costs it real throughput (the
     weakness NewReno and SACK were invented for) but it must keep
     making progress. *)
  let sender = run_sender ~rate_bps:120_000.0 ~capacity_bits:600_000 ~prop:0.02 () in
  let delivered = Sender.delivered sender in
  Alcotest.(check bool) (Printf.sprintf "progress with a gap (got %d)" delivered) true
    (delivered > 350 && delivered < 590)

let sender_rtt_samples_sane () =
  let sender = run_sender ~rate_bps:120_000.0 ~capacity_bits:120_000 ~prop:0.05 () in
  let rtts = List.map snd (Sender.rtt_trace sender) in
  Alcotest.(check bool) "has samples" true (List.length rtts > 50);
  (* Physics floor: service 0.1 + propagation 0.05. The bulk sits below
     the full-queue delay; cumulative-ACK sampling can inflate a few
     post-recovery samples (an ACK covering a run reports the oldest
     send), so bound the median, not the max. *)
  List.iter
    (fun rtt -> if rtt < 0.15 -. 1e-9 then Alcotest.failf "rtt below physics: %g" rtt)
    rtts;
  let median = Utc_stats.Summary.percentile rtts ~q:0.5 in
  Alcotest.(check bool) (Printf.sprintf "median plausible (%.3f)" median) true
    (median >= 0.15 && median <= 1.4)

let sender_recovers_from_burst_loss () =
  (* Tiny buffer forces repeated overflow bursts; the sender must keep
     making progress (no deadlock) and deliver a solid fraction. *)
  let sender = run_sender ~rate_bps:120_000.0 ~capacity_bits:60_000 ~prop:0.02 ~duration:120.0 () in
  let delivered = Sender.delivered sender in
  Alcotest.(check bool) (Printf.sprintf "progress under drops (got %d)" delivered) true
    (delivered > 600);
  Alcotest.(check bool) "losses actually happened" true (Sender.retransmissions sender > 0)

let sender_cumulative_ack_monotone () =
  let sender = run_sender ~rate_bps:120_000.0 ~capacity_bits:60_000 ~prop:0.02 () in
  Alcotest.(check bool) "delivered <= sent" true
    (Sender.delivered sender <= Sender.sent_count sender);
  Alcotest.(check bool) "in flight non-negative" true (Sender.in_flight sender >= 0)

let cubic_and_vegas_run () =
  List.iter
    (fun make_cc ->
      let config = { Sender.default_config with make_cc } in
      let sender = run_sender ~config ~rate_bps:120_000.0 ~capacity_bits:240_000 ~prop:0.02 () in
      Alcotest.(check bool) "delivers" true (Sender.delivered sender > 300))
    [ (fun () -> Cc.vegas ()); (fun () -> Cc.tahoe ()) ]

let vegas_keeps_queue_short () =
  (* Vegas (delay-based) should show much lower steady RTT than Reno on
     the same deeply buffered path. *)
  let mean_rtt make_cc =
    let config = { Sender.default_config with make_cc } in
    let sender =
      run_sender ~config ~rate_bps:120_000.0 ~capacity_bits:1_200_000 ~prop:0.02 ~duration:120.0 ()
    in
    let rtts = List.filteri (fun i _ -> i > 50) (List.map snd (Sender.rtt_trace sender)) in
    List.fold_left ( +. ) 0.0 rtts /. float_of_int (List.length rtts)
  in
  let reno = mean_rtt (fun () -> Cc.reno ()) in
  let vegas = mean_rtt (fun () -> Cc.vegas ()) in
  Alcotest.(check bool)
    (Printf.sprintf "vegas rtt (%.3f) < reno rtt (%.3f)" vegas reno)
    true (vegas < reno)

let suite =
  [
    ("rto initial", `Quick, rto_initial);
    ("rto first sample", `Quick, rto_first_sample);
    ("rto smoothing", `Quick, rto_smoothing);
    ("rto backoff clamp", `Quick, rto_backoff_and_clamp);
    ("rto min clamp", `Quick, rto_min_clamp);
    ("tahoe", `Quick, tahoe_slow_start_then_collapse);
    ("reno halves", `Quick, reno_halves_on_dupack);
    ("reno congestion avoidance", `Quick, reno_congestion_avoidance);
    ("vegas backs off", `Quick, vegas_backs_off_on_delay);
    ("vegas grows", `Quick, vegas_grows_when_uncongested);
    ("classic reno multidrop collapse", `Quick, classic_reno_multidrop_collapse);
    ("sender rtt samples", `Quick, sender_rtt_samples_sane);
    ("sender recovers from burst loss", `Quick, sender_recovers_from_burst_loss);
    ("sender cumulative monotone", `Quick, sender_cumulative_ack_monotone);
    ("cubic and vegas run", `Quick, cubic_and_vegas_run);
    ("vegas keeps queue short", `Quick, vegas_keeps_queue_short);
  ]

(* --- additional edges --- *)

let sender_traces_nonempty () =
  let sends = ref [] and samples = ref [] in
  (* Two window observers, tagged, log into one list. *)
  let watch sender =
    List.iter
      (fun tag -> Sender.watch_cwnd sender (fun now w -> samples := (tag, now, w) :: !samples))
      [ 1; 2 ]
  in
  let sender =
    run_sender ~rate_bps:120_000.0 ~capacity_bits:240_000 ~prop:0.02 ~duration:20.0
      ~on_send:(fun now -> sends := now :: !sends)
      ~watch ()
  in
  let rec paired = function
    | (1, t1, w1) :: (2, t2, w2) :: rest -> Float.equal t1 t2 && Float.equal w1 w2 && paired rest
    | [] -> true
    | _ :: _ -> false
  in
  let samples = List.rev !samples in
  let firsts = List.filter (fun (tag, _, _) -> tag = 1) samples in
  Alcotest.(check bool) "window samples" true (List.length firsts > 10);
  Alcotest.(check bool) "observers see each sample in registration order" true (paired samples);
  Alcotest.(check bool) "window samples monotone in time" true
    (let times = List.map (fun (_, t, _) -> t) firsts in
     List.sort Float.compare times = times);
  Alcotest.(check (float 0.0)) "the last sample is the final window" (Sender.cwnd sender)
    (match List.rev firsts with
    | (_, _, w) :: _ -> w
    | [] -> nan);
  Alcotest.(check int) "one inject per transmission" (Sender.sent_count sender) (List.length !sends);
  Alcotest.(check bool) "send log monotone in time" true
    (let times = List.rev !sends in
     List.sort Float.compare times = times)

module Sink = Utc_obs.Sink
module Event = Utc_obs.Event

(* [f ()] with the sink on or off, recording into a private handle; the
   events that handle received. *)
let journal ~enabled f =
  let was_enabled = Sink.enabled () in
  let handle = Sink.create () in
  if enabled then Sink.enable () else Sink.disable ();
  let result =
    Fun.protect
      ~finally:(fun () -> if was_enabled then Sink.enable () else Sink.disable ())
      (fun () -> Sink.with_run ~run:"sender" handle f)
  in
  (result, Sink.events_of handle)

(* Every send, new cumulative ACK and timeout is journaled, with its
   flow, when the sink is on; nothing is when it is off, and the run is
   the same either way. *)
let sender_journal_follows_the_sink () =
  let run () = run_sender ~rate_bps:120_000.0 ~capacity_bits:24_000 ~prop:0.02 ~duration:30.0 () in
  let sender, events = journal ~enabled:true run in
  let quiet, silent = journal ~enabled:false run in
  Alcotest.(check int) "sink off records nothing" 0 (List.length silent);
  Alcotest.(check int) "same run either way" (Sender.sent_count quiet) (Sender.sent_count sender);
  Alcotest.(check bool) "the run timed out" true (Sender.timeouts sender > 0);
  let primary = List.filter (fun (r : Sink.recorded) -> r.Sink.flow = Some "primary") events in
  let sends, acks, timeouts =
    List.fold_left
      (fun (sends, acks, timeouts) (r : Sink.recorded) ->
        match r.Sink.event with
        | Event.Packet_send _ -> (sends + 1, acks, timeouts)
        | Event.Packet_ack { seq } -> (sends, seq :: acks, timeouts)
        | Event.Timeout _ -> (sends, acks, timeouts + 1)
        | _ -> (sends, acks, timeouts))
      (0, [], 0) primary
  in
  Alcotest.(check int) "one packet_send per transmission" (Sender.sent_count sender) sends;
  Alcotest.(check int) "one timeout event per timeout" (Sender.timeouts sender) timeouts;
  match acks with
  | [] -> Alcotest.fail "no packet_ack events"
  | last :: _ ->
    Alcotest.(check int) "last packet_ack is the cumulative ACK" (Sender.delivered sender) last;
    let ascending = List.rev acks in
    Alcotest.(check (list int)) "packet_ack seqs strictly increase"
      (List.sort_uniq Int.compare ascending)
      ascending

(* A pure 50 ms delay path that loses the first transmission of [lost]
   and nothing else. The window opens 1, 2, 3, 4 in slow start, one ACK
   per packet, so when the hole at [lost] opens, [lost - 1] later
   segments are in flight: 2 for segment 2, 3 for segment 3, and no
   new data goes out on a duplicate ACK. *)
let run_losing ~lost =
  let engine = Engine.create ~seed:6 () in
  let sender_cell = ref None and dropped = ref false in
  let inject pkt =
    if pkt.Packet.seq = lost && not !dropped then dropped := true
    else
      ignore
        (Engine.schedule_after ~prio:(Evprio.arrival pkt.Packet.flow) engine ~delay:0.05 (fun () ->
             Option.iter (fun sender -> Sender.on_delivery sender pkt) !sender_cell))
  in
  let sender = Sender.create engine Sender.default_config ~inject in
  sender_cell := Some sender;
  Sender.start sender;
  Engine.run ~until:2.0 engine;
  sender

(* Fast retransmit fires on the third duplicate ACK, not the second. *)
let fast_retransmit_at_three_dupacks () =
  let three = run_losing ~lost:3 in
  Alcotest.(check int) "three dupacks: one retransmission" 1 (Sender.retransmissions three);
  Alcotest.(check int) "three dupacks: no timeout" 0 (Sender.timeouts three);
  let two = run_losing ~lost:2 in
  Alcotest.(check int) "two dupacks: one retransmission" 1 (Sender.retransmissions two);
  Alcotest.(check int) "two dupacks: the timer repairs it" 1 (Sender.timeouts two);
  Alcotest.(check bool) "both runs move past the hole" true
    (Sender.delivered three > 10 && Sender.delivered two > 10)

let tcp_extra_suite =
  [
    ("sender traces", `Quick, sender_traces_nonempty);
    ("sender journal follows the sink", `Quick, sender_journal_follows_the_sink);
    ("fast retransmit at three dupacks", `Quick, fast_retransmit_at_three_dupacks);
  ]

let suite = suite @ tcp_extra_suite
