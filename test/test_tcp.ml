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
  let rto = Rto.create ~initial_rto:1.0 ~max_rto:4.0 () in
  Rto.on_timeout rto;
  Alcotest.(check (float 1e-9)) "doubled" 2.0 (Rto.rto rto);
  Rto.on_timeout rto;
  Rto.on_timeout rto;
  Alcotest.(check (float 1e-9)) "clamped at max" 4.0 (Rto.rto rto)

let rto_min_clamp () =
  let rto = Rto.create ~min_rto:0.3 () in
  Rto.observe rto ~rtt:0.01;
  Alcotest.(check (float 1e-9)) "floor" 0.3 (Rto.rto rto)

(* --- Cc variants --- *)

let tahoe_slow_start_then_collapse () =
  let cc = Cc.tahoe () in
  Alcotest.(check (float 1e-9)) "initial" 1.0 (cc.Cc.cwnd ());
  cc.Cc.on_ack ~newly_acked:1 ~rtt:0.1 ~now:0.1;
  cc.Cc.on_ack ~newly_acked:2 ~rtt:0.1 ~now:0.2;
  Alcotest.(check (float 1e-9)) "slow start" 4.0 (cc.Cc.cwnd ());
  cc.Cc.on_loss_event ~now:0.3;
  Alcotest.(check (float 1e-9)) "collapse to 1" 1.0 (cc.Cc.cwnd ());
  Alcotest.(check (float 1e-9)) "ssthresh = cwnd/2" 2.0 (cc.Cc.ssthresh ())

let reno_halves_on_dupack () =
  let cc = Cc.reno ~initial_cwnd:16.0 () in
  cc.Cc.on_loss_event ~now:1.0;
  Alcotest.(check (float 1e-9)) "fast recovery" 8.0 (cc.Cc.cwnd ());
  cc.Cc.on_timeout ~now:2.0;
  Alcotest.(check (float 1e-9)) "timeout to 1" 1.0 (cc.Cc.cwnd ())

let reno_congestion_avoidance () =
  let cc = Cc.reno ~initial_cwnd:10.0 () in
  cc.Cc.on_loss_event ~now:0.0;
  (* cwnd = ssthresh = 5: now in congestion avoidance. *)
  let before = cc.Cc.cwnd () in
  cc.Cc.on_ack ~newly_acked:1 ~rtt:0.1 ~now:0.1;
  Alcotest.(check (float 1e-9)) "+1/cwnd" (before +. (1.0 /. before)) (cc.Cc.cwnd ())

let cubic_reacts_and_regrows () =
  let cc = Cc.cubic ~initial_cwnd:100.0 () in
  cc.Cc.on_loss_event ~now:10.0;
  Alcotest.(check (float 1e-9)) "beta reduction" 70.0 (cc.Cc.cwnd ());
  let start = cc.Cc.cwnd () in
  (* Feed ACKs over simulated time; CUBIC should climb back toward w_max. *)
  for i = 1 to 200 do
    cc.Cc.on_ack ~newly_acked:1 ~rtt:0.1 ~now:(10.0 +. (0.05 *. float_of_int i))
  done;
  let after = cc.Cc.cwnd () in
  Alcotest.(check bool) "regrows" true (after > start);
  Alcotest.(check bool) "approaches plateau near w_max" true (after < 140.0)

let vegas_backs_off_on_delay () =
  let cc = Cc.vegas ~initial_cwnd:10.0 () in
  (* Establish baseRTT = 0.1, then see inflated RTTs: diff > beta. *)
  cc.Cc.on_ack ~newly_acked:1 ~rtt:0.1 ~now:0.1;
  let before = cc.Cc.cwnd () in
  for i = 1 to 50 do
    cc.Cc.on_ack ~newly_acked:1 ~rtt:0.5 ~now:(0.1 +. (0.1 *. float_of_int i))
  done;
  Alcotest.(check bool) "decreases under queueing" true (cc.Cc.cwnd () < before)

let vegas_grows_when_uncongested () =
  let cc = Cc.vegas ~initial_cwnd:4.0 () in
  cc.Cc.on_ack ~newly_acked:1 ~rtt:0.1 ~now:0.1;
  let before = cc.Cc.cwnd () in
  for i = 1 to 20 do
    cc.Cc.on_ack ~newly_acked:1 ~rtt:0.101 ~now:(0.1 +. (0.1 *. float_of_int i))
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

let sender_fills_clean_link () =
  (* 120 kbit/s = 10 pkt/s for 60 s: NewReno recovers from its slow-start
     overshoot and lands near 600 delivered. *)
  let config = { Sender.default_config with newreno = true } in
  let sender = run_sender ~config ~rate_bps:120_000.0 ~capacity_bits:600_000 ~prop:0.02 () in
  let delivered = Sender.delivered sender in
  Alcotest.(check bool) (Printf.sprintf "near capacity (got %d)" delivered) true
    (delivered > 540);
  Alcotest.(check int) "no timeouts" 0 (Sender.timeouts sender)

let classic_reno_multidrop_collapse () =
  (* Classic Reno repairs one hole per recovery episode; a slow-start
     overshoot with dozens of drops costs it real throughput (the
     weakness NewReno and SACK were invented for) but it must keep
     making progress. *)
  let sender = run_sender ~rate_bps:120_000.0 ~capacity_bits:600_000 ~prop:0.02 () in
  let delivered = Sender.delivered sender in
  Alcotest.(check bool) (Printf.sprintf "progress with a gap (got %d)" delivered) true
    (delivered > 350 && delivered < 590)

let sender_respects_backlog () =
  let config = { Sender.default_config with backlog = Some 25 } in
  let sender = run_sender ~config ~rate_bps:120_000.0 ~capacity_bits:600_000 ~prop:0.02 () in
  Alcotest.(check int) "sent exactly the backlog" 25 (Sender.delivered sender);
  Alcotest.(check int) "no retransmissions" 0 (Sender.retransmissions sender)

let sender_rtt_samples_sane () =
  let config = { Sender.default_config with newreno = true } in
  let sender = run_sender ~config ~rate_bps:120_000.0 ~capacity_bits:120_000 ~prop:0.05 () in
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

let newreno_not_worse_than_reno () =
  let run newreno =
    let config = { Sender.default_config with newreno } in
    Sender.delivered
      (run_sender ~config ~rate_bps:120_000.0 ~capacity_bits:60_000 ~prop:0.02 ~duration:120.0 ())
  in
  let reno = run false in
  let newreno = run true in
  Alcotest.(check bool)
    (Printf.sprintf "newreno (%d) >= 0.9 * reno (%d)" newreno reno)
    true
    (float_of_int newreno >= 0.9 *. float_of_int reno)

let cubic_and_vegas_run () =
  List.iter
    (fun make_cc ->
      let config = { Sender.default_config with make_cc } in
      let sender = run_sender ~config ~rate_bps:120_000.0 ~capacity_bits:240_000 ~prop:0.02 () in
      Alcotest.(check bool) "delivers" true (Sender.delivered sender > 300))
    [ (fun () -> Cc.cubic ()); (fun () -> Cc.vegas ()); (fun () -> Cc.tahoe ()) ]

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
    ("cubic", `Quick, cubic_reacts_and_regrows);
    ("vegas backs off", `Quick, vegas_backs_off_on_delay);
    ("vegas grows", `Quick, vegas_grows_when_uncongested);
    ("sender fills clean link", `Quick, sender_fills_clean_link);
    ("classic reno multidrop collapse", `Quick, classic_reno_multidrop_collapse);
    ("sender backlog", `Quick, sender_respects_backlog);
    ("sender rtt samples", `Quick, sender_rtt_samples_sane);
    ("sender recovers from burst loss", `Quick, sender_recovers_from_burst_loss);
    ("sender cumulative monotone", `Quick, sender_cumulative_ack_monotone);
    ("newreno not worse", `Quick, newreno_not_worse_than_reno);
    ("cubic and vegas run", `Quick, cubic_and_vegas_run);
    ("vegas keeps queue short", `Quick, vegas_keeps_queue_short);
  ]

(* --- additional edges --- *)

let cubic_timeout_collapses () =
  let cc = Cc.cubic ~initial_cwnd:50.0 () in
  cc.Cc.on_timeout ~now:1.0;
  Alcotest.(check (float 1e-9)) "cwnd 1" 1.0 (cc.Cc.cwnd ());
  Alcotest.(check bool) "ssthresh set" true (cc.Cc.ssthresh () < 50.0)

let newreno_backlog_exact () =
  let config = { Sender.default_config with newreno = true; backlog = Some 40 } in
  let sender = run_sender ~config ~rate_bps:120_000.0 ~capacity_bits:240_000 ~prop:0.02 () in
  Alcotest.(check int) "exactly the backlog" 40 (Sender.delivered sender)

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

let tcp_extra_suite =
  [
    ("cubic timeout", `Quick, cubic_timeout_collapses);
    ("newreno backlog", `Quick, newreno_backlog_exact);
    ("sender traces", `Quick, sender_traces_nonempty);
    ("sender journal follows the sink", `Quick, sender_journal_follows_the_sink);
  ]

let suite = suite @ tcp_extra_suite
