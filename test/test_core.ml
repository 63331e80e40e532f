(* Tests for the ISender core: planner decisions, controller behavior,
   receiver hub. *)
open Utc_net
module Engine = Utc_sim.Engine
module Belief = Utc_inference.Belief
module Forward = Utc_model.Forward
module Mstate = Utc_model.Mstate
module Planner = Utc_core.Planner
module Isender = Utc_core.Isender
module Receiver = Utc_core.Receiver

type params = { rate : float; fill : int }

let topology p =
  {
    Topology.sources = [ Topology.endpoint Flow.Primary ];
    shared =
      Topology.series
        [ Topology.buffer ~capacity_bits:96_000; Topology.throughput ~rate_bps:p.rate ];
  }

let seed_of p weight =
  let compiled = Compiled.compile_exn (topology p) in
  let prepared = Forward.prepare Forward.default_config compiled in
  let prefill =
    if p.fill = 0 then []
    else
      [
        ( List.hd (Compiled.station_ids compiled),
          List.init p.fill (fun i -> Packet.make ~flow:Flow.Cross ~seq:(-1 - i) ~sent_at:0.0 ()) );
      ]
  in
  (p, weight, prepared, Mstate.initial ~prefill ~epoch:1.0 compiled)

let make_packet at = Packet.make ~flow:Flow.Primary ~seq:0 ~sent_at:at ()

(* --- Planner --- *)

let planner_rejects_bad_delays () =
  let belief = Belief.create [ seed_of { rate = 12_000.0; fill = 0 } 1.0 ] in
  let bad = { Planner.default_config with delays = [ 1.0; 2.0 ] } in
  Alcotest.check_raises "must start at 0"
    (Invalid_argument "Planner: delays must start with 0 and be positive afterwards") (fun () ->
      ignore (Planner.decide bad ~belief ~now:0.0 ~pending:[] ~make_packet));
  List.iter
    (fun (name, delays) ->
      let bad = { Planner.default_config with delays } in
      Alcotest.check_raises name (Invalid_argument "Planner: delays must ascend strictly") (fun () ->
          ignore (Planner.decide bad ~belief ~now:0.0 ~pending:[] ~make_packet)))
    [ ("unsorted", [ 0.0; 2.0; 1.0 ]); ("repeated", [ 0.0; 1.0; 1.0; 2.0 ]) ]

let planner_sends_on_known_empty_net () =
  let belief = Belief.create [ seed_of { rate = 12_000.0; fill = 0 } 1.0 ] in
  let decision, evaluations =
    Planner.decide Planner.default_config ~belief ~now:0.0 ~pending:[] ~make_packet
  in
  Alcotest.(check bool) "send now" true (decision = Planner.Send_now);
  Alcotest.(check int) "one evaluation per candidate" (List.length Planner.default_config.Planner.delays)
    (List.length evaluations);
  (* Net utility of sending now on an empty known link is near full value. *)
  let net0 = (List.hd evaluations).Planner.net_utility in
  Alcotest.(check bool) "positive" true (net0 > 0.0)

let planner_defers_when_buffer_maybe_full () =
  (* Half the mass says the queue is completely full (one packet in
     service plus eight queued = all 96k bits of capacity); deferring
     clears the drop risk at tiny discount cost. *)
  let belief =
    Belief.create [ seed_of { rate = 12_000.0; fill = 0 } 0.5; seed_of { rate = 12_000.0; fill = 9 } 0.5 ]
  in
  let decision, _ = Planner.decide Planner.default_config ~belief ~now:0.0 ~pending:[] ~make_packet in
  match decision with
  | Planner.Sleep d -> Alcotest.(check bool) "waits for possible drain" true (d > 0.0)
  | Planner.Send_now -> Alcotest.fail "should defer under drop risk"

let planner_accounts_pending_sends () =
  (* With 8 of our own packets already pending into a 96k buffer, another
     immediate send would be tail-dropped: the planner must sleep. *)
  let belief = Belief.create [ seed_of { rate = 12_000.0; fill = 0 } 1.0 ] in
  let pending =
    List.init 9 (fun i -> (0.0, Packet.make ~flow:Flow.Primary ~seq:i ~sent_at:0.0 ()))
  in
  let decision, _ = Planner.decide Planner.default_config ~belief ~now:0.0 ~pending ~make_packet in
  match decision with
  | Planner.Sleep _ -> ()
  | Planner.Send_now -> Alcotest.fail "would overflow its own queue"

let planner_empty_belief_sleeps () =
  let belief = Belief.create [] in
  let decision, evaluations =
    Planner.decide Planner.default_config ~belief ~now:0.0 ~pending:[] ~make_packet
  in
  Alcotest.(check bool) "sleeps max" true (decision = Planner.Sleep 32.0);
  Alcotest.(check int) "no evaluations" 0 (List.length evaluations)

(* --- Receiver hub --- *)

let receiver_routes_and_counts () =
  let engine = Engine.create () in
  let receiver = Receiver.create engine in
  let topology =
    {
      Topology.sources = [ Topology.endpoint Flow.Primary; Topology.pinger ~flow:Flow.Cross ~rate_pps:1.0 () ];
      shared = Topology.series [ Topology.throughput ~rate_bps:120_000.0 ];
    }
  in
  let runtime = Utc_elements.Runtime.build engine (Compiled.compile_exn topology) (Receiver.callbacks receiver) in
  let heard = ref [] in
  Receiver.subscribe receiver Flow.Primary (fun t pkt -> heard := (t, pkt.Packet.seq) :: !heard);
  ignore
    (Engine.schedule ~prio:1 engine ~at:0.5 (fun () ->
         Utc_elements.Runtime.inject runtime Flow.Primary
           (Packet.make ~flow:Flow.Primary ~seq:7 ~sent_at:0.5 ())));
  Engine.run ~until:3.2 engine;
  Alcotest.(check int) "primary count" 1 (Receiver.delivered_count receiver Flow.Primary);
  Alcotest.(check int) "cross count" 4 (Receiver.delivered_count receiver Flow.Cross);
  Alcotest.(check bool) "subscriber heard seq 7" true (List.mem_assoc 0.6 !heard);
  let bps = Receiver.throughput receiver Flow.Cross ~since:0.0 ~until:3.2 in
  Alcotest.(check bool) "cross throughput positive" true (bps > 0.0)

(* Two stations in series: the first holds one packet and drops two of
   four, the second queues one behind the one it serves. A wrapping
   [on_queue] records every change the runtime reports; each station's
   observer must see exactly that station's changes, in order. *)
let receiver_queue_and_drops () =
  let engine = Engine.create () in
  let receiver = Receiver.create engine in
  let topology =
    {
      Topology.sources = [ Topology.endpoint Flow.Primary ];
      shared =
        Topology.series
          [
            Topology.station ~capacity_bits:12_000 ~rate_bps:12_000.0 ();
            Topology.station ~capacity_bits:24_000 ~rate_bps:6_000.0 ();
          ];
    }
  in
  let compiled = Compiled.compile_exn topology in
  let reported = ref [] in
  let cb = Receiver.callbacks receiver in
  let on_queue ~node_id ~bits ~packets =
    reported := (node_id, (Engine.now engine, bits)) :: !reported;
    cb.Utc_elements.Runtime.on_queue ~node_id ~bits ~packets
  in
  let runtime =
    Utc_elements.Runtime.build engine compiled { cb with Utc_elements.Runtime.on_queue }
  in
  let stations = Compiled.station_ids compiled in
  let observed =
    List.map
      (fun id ->
        let seen = ref [] in
        Receiver.watch_queue receiver ~node_id:id (fun t bits -> seen := (t, bits) :: !seen);
        (id, seen))
      stations
  in
  for i = 0 to 3 do
    ignore
      (Engine.schedule ~prio:1 engine ~at:(0.01 *. float_of_int i) (fun () ->
           Utc_elements.Runtime.inject runtime Flow.Primary
             (Packet.make ~flow:Flow.Primary ~seq:i ~sent_at:0.0 ())))
  done;
  Engine.run engine;
  Alcotest.(check int) "two tail drops" 2 (List.length (Receiver.drops receiver));
  Alcotest.(check int) "two stations" 2 (List.length stations);
  let reported = List.rev !reported in
  List.iter
    (fun (id, seen) ->
      let expected = List.filter_map (fun (n, sample) -> if n = id then Some sample else None) reported in
      Alcotest.(check bool) (Printf.sprintf "station %d changed" id) true (expected <> []);
      Alcotest.(check (list (pair (float 0.0) int)))
        (Printf.sprintf "station %d observer sees its changes in order" id)
        expected (List.rev !seen))
    observed

(* A multi-flow run with tail drops: four endpoints and a pinger share a
   three-packet station. A wrapping [deliver] records every delivery;
   the receiver's per-flow queries must equal reference folds over that
   record. Aux 9 is an endpoint that never sends, Aux 200 only a
   subscription; Aux 3 and Cross are delivered with no subscriber. *)
let receiver_flow_queries () =
  let engine = Engine.create ~seed:3 () in
  let receiver = Receiver.create engine in
  let endpoints = Flow.[ Aux 3; Primary; Aux 0; Aux 9 ] in
  let topology =
    {
      Topology.sources =
        List.map Topology.endpoint endpoints
        @ [ Topology.pinger ~flow:Flow.Cross ~rate_pps:3.0 ~size_bits:4_000 () ];
      shared =
        Topology.series
          [ Topology.buffer ~capacity_bits:36_000; Topology.throughput ~rate_bps:48_000.0 ];
    }
  in
  let recorded = ref [] in
  let cb = Receiver.callbacks receiver in
  let deliver flow pkt =
    recorded := (Engine.now engine, flow, pkt) :: !recorded;
    cb.Utc_elements.Runtime.deliver flow pkt
  in
  let runtime =
    Utc_elements.Runtime.build engine (Compiled.compile_exn topology)
      { cb with Utc_elements.Runtime.deliver }
  in
  Receiver.subscribe receiver (Flow.Aux 200) (fun _ _ -> Alcotest.fail "aux200 never delivers");
  Receiver.subscribe receiver (Flow.Aux 9) (fun _ _ -> Alcotest.fail "aux9 never sends");
  let order = ref [] in
  Receiver.subscribe receiver Flow.Primary (fun _ pkt -> order := (1, pkt.Packet.seq) :: !order);
  Receiver.subscribe receiver Flow.Primary (fun _ pkt -> order := (2, pkt.Packet.seq) :: !order);
  let heard_aux0 = ref [] in
  Receiver.subscribe receiver (Flow.Aux 0) (fun t pkt -> heard_aux0 := (t, pkt) :: !heard_aux0);
  List.iteri
    (fun k (flow, bits) ->
      for j = 0 to 29 do
        let at = (0.1 *. float_of_int k) +. (0.4 *. float_of_int j) in
        ignore
          (Engine.schedule ~prio:(Evprio.arrival flow) engine ~at (fun () ->
               Utc_elements.Runtime.inject runtime flow (Packet.make ~bits ~flow ~seq:j ~sent_at:at ())))
      done)
    Flow.[ (Primary, 12_000); (Aux 0, 8_000); (Aux 3, 6_000) ];
  Engine.run ~until:14.0 engine;
  let tail_drops =
    List.length
      (List.filter
         (fun (_, _, reason, _) -> reason = Utc_elements.Runtime.Tail_drop)
         (Receiver.drops receiver))
  in
  Alcotest.(check bool) (Printf.sprintf "tail drops happened (%d)" tail_drops) true (tail_drops > 0);
  let recorded = List.rev !recorded in
  List.iter
    (fun (_, flow, pkt) ->
      if not (Flow.equal flow pkt.Packet.flow) then Alcotest.fail "deliver got another flow")
    recorded;
  let same_log a b =
    List.equal
      (fun (t, (p : Packet.t)) (t', (p' : Packet.t)) ->
        Float.equal t t' && p.seq = p'.seq && Flow.equal p.flow p'.flow && p.bits = p'.bits
        && Float.equal p.sent_at p'.sent_at)
      a b
  in
  List.iter
    (fun flow ->
      let name = Flow.to_string flow in
      let reference =
        List.filter_map
          (fun (t, _, pkt) -> if Flow.equal pkt.Packet.flow flow then Some (t, pkt) else None)
          recorded
      in
      Alcotest.(check bool) (name ^ " deliveries") true
        (same_log reference (Receiver.deliveries receiver flow));
      Alcotest.(check int) (name ^ " count") (List.length reference)
        (Receiver.delivered_count receiver flow);
      let times = List.map fst reference in
      let first, last =
        match times with
        | [] -> (1.0, 2.0)
        | t :: _ -> (t, List.fold_left Float.max t times)
      in
      List.iter
        (fun (since, until) ->
          let span = until -. since in
          let bits =
            List.fold_left
              (fun acc (t, pkt) -> if t >= since && t <= until then acc + pkt.Packet.bits else acc)
              0 reference
          in
          let expected = if span <= 0.0 then 0.0 else float_of_int bits /. span in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s throughput over [%g, %g]" name since until)
            expected
            (Receiver.throughput receiver flow ~since ~until))
        [
          (0.0, 14.0);
          (2.0, 5.5);
          (first, last);
          (first, first);
          (100.0, 200.0);
          (5.5, 2.0);
        ])
    Flow.[ Primary; Cross; Aux 0; Aux 3; Aux 9; Aux 200; Aux 1; Aux 5_000 ];
  List.iter
    (fun flow ->
      if Receiver.delivered_count receiver flow = 0 then
        Alcotest.failf "%s should have deliveries" (Flow.to_string flow))
    Flow.[ Primary; Cross; Aux 0; Aux 3 ];
  Alcotest.(check bool) "aux0 subscriber heard its deliveries" true
    (same_log (Receiver.deliveries receiver (Flow.Aux 0)) (List.rev !heard_aux0));
  let expected_order =
    List.concat_map
      (fun (_, pkt) -> [ (1, pkt.Packet.seq); (2, pkt.Packet.seq) ])
      (Receiver.deliveries receiver Flow.Primary)
  in
  Alcotest.(check (list (pair int int))) "primary subscribers run in subscription order"
    expected_order (List.rev !order);
  Alcotest.check_raises "a flow without a rank cannot subscribe"
    (Invalid_argument "Receiver: flow aux-1 has no rank") (fun () ->
      Receiver.subscribe receiver (Flow.Aux (-1)) (fun _ _ -> ()))

(* --- ISender end-to-end --- *)

let run_isender ?(duration = 60.0) ?(config = Isender.default_config) ~seeds ~truth () =
  let engine = Engine.create ~seed:8 () in
  let receiver = Receiver.create engine in
  let runtime = Utc_elements.Runtime.build engine (Compiled.compile_exn truth) (Receiver.callbacks receiver) in
  let belief = Belief.create seeds in
  let isender =
    Isender.create engine config ~belief ~inject:(fun pkt ->
        Utc_elements.Runtime.inject runtime Flow.Primary pkt)
  in
  Receiver.subscribe receiver Flow.Primary (fun _ pkt -> Isender.on_ack isender pkt);
  Isender.start isender;
  Engine.run ~until:duration engine;
  (isender, receiver)

let isender_tracks_link_speed () =
  let seeds =
    List.concat_map
      (fun rate -> List.map (fun fill -> seed_of { rate; fill } 1.0) [ 0; 4; 9 ])
      [ 6_000.0; 12_000.0; 24_000.0 ]
  in
  let isender, _ = run_isender ~seeds ~truth:(topology { rate = 12_000.0; fill = 0 }) () in
  let sent = Isender.sent_count isender in
  (* Link carries 60 packets in 60 s; tentative start costs a few. *)
  Alcotest.(check bool) (Printf.sprintf "sends at link speed (got %d)" sent) true
    (sent >= 50 && sent <= 62);
  Alcotest.(check int) "no rejected updates" 0 (Isender.rejected_updates isender);
  let best, mass = Belief.map_estimate (Isender.belief isender) in
  Alcotest.(check (float 0.0)) "link identified" 12_000.0 best.rate;
  Alcotest.(check bool) "confident" true (mass > 0.99)

let isender_tentative_start () =
  (* The fill=9 hypotheses leave no room at all, so a blind send at t=0
     risks an immediate tail drop. *)
  let seeds =
    List.concat_map
      (fun rate -> List.map (fun fill -> seed_of { rate; fill } 1.0) [ 0; 4; 9 ])
      [ 6_000.0; 12_000.0; 24_000.0 ]
  in
  let isender, _ = run_isender ~seeds ~truth:(topology { rate = 12_000.0; fill = 0 }) () in
  match Isender.sent isender with
  | (first, _) :: _ -> Alcotest.(check bool) "does not fire blind at t=0" true (first > 0.0)
  | [] -> Alcotest.fail "never sent"

let isender_acks_recorded () =
  let seeds = [ seed_of { rate = 12_000.0; fill = 0 } 1.0 ] in
  let isender, receiver = run_isender ~seeds ~truth:(topology { rate = 12_000.0; fill = 0 }) () in
  Alcotest.(check int) "every delivery acked"
    (Receiver.delivered_count receiver Flow.Primary)
    (List.length (Isender.acked isender))

(* The ISender journals every send and ACK, with its flow, exactly when
   the sink is on; the run is the same either way. *)
let isender_journal_follows_the_sink () =
  let module Sink = Utc_obs.Sink in
  let run ~enabled =
    let was_enabled = Sink.enabled () in
    let handle = Sink.create () in
    if enabled then Sink.enable () else Sink.disable ();
    let isender, _ =
      Fun.protect
        ~finally:(fun () -> if was_enabled then Sink.enable () else Sink.disable ())
        (fun () ->
          Sink.with_run ~run:"isender" handle (fun () ->
              run_isender ~duration:20.0
                ~seeds:[ seed_of { rate = 12_000.0; fill = 0 } 1.0 ]
                ~truth:(topology { rate = 12_000.0; fill = 0 })
                ()))
    in
    Sink.reset ();
    Sink.absorb handle;
    let events = Sink.events () in
    Sink.reset ();
    (isender, events)
  in
  let isender, events = run ~enabled:true in
  let quiet, silent = run ~enabled:false in
  Alcotest.(check int) "sink off records nothing" 0 (List.length silent);
  Alcotest.(check int) "same run either way" (Isender.sent_count quiet) (Isender.sent_count isender);
  let count keep =
    List.length
      (List.filter
         (fun (r : Sink.recorded) -> r.Sink.flow = Some "primary" && keep r.Sink.event)
         events)
  in
  let sends = count (function Utc_obs.Event.Packet_send _ -> true | _ -> false) in
  let acks = count (function Utc_obs.Event.Packet_ack _ -> true | _ -> false) in
  Alcotest.(check bool) "it sent" true (sends > 0);
  Alcotest.(check int) "one packet_send per send" (Isender.sent_count isender) sends;
  Alcotest.(check int) "one packet_ack per ack" (List.length (Isender.acked isender)) acks

let isender_wakeup_hook_runs () =
  let seeds = [ seed_of { rate = 12_000.0; fill = 0 } 1.0 ] in
  let engine = Engine.create ~seed:8 () in
  let receiver = Receiver.create engine in
  let runtime =
    Utc_elements.Runtime.build engine
      (Compiled.compile_exn (topology { rate = 12_000.0; fill = 0 }))
      (Receiver.callbacks receiver)
  in
  let belief = Belief.create seeds in
  let isender =
    Isender.create engine Isender.default_config ~belief ~inject:(fun pkt ->
        Utc_elements.Runtime.inject runtime Flow.Primary pkt)
  in
  Receiver.subscribe receiver Flow.Primary (fun _ pkt -> Isender.on_ack isender pkt);
  let hook_count = ref 0 in
  Isender.on_wakeup isender (fun _ _ -> incr hook_count);
  Isender.start isender;
  Engine.run ~until:10.0 engine;
  Alcotest.(check bool) "hook ran" true (!hook_count > 0)

let isender_under_loss_keeps_consistency () =
  (* Last-mile loss: the belief must never hit All_rejected (the
     likelihood explains missing ACKs). *)
  let lossy rate =
    {
      Topology.sources = [ Topology.endpoint Flow.Primary ];
      shared =
        Topology.series
          [
            Topology.buffer ~capacity_bits:96_000;
            Topology.throughput ~rate_bps:rate;
            Topology.loss ~rate:0.2;
          ];
    }
  in
  let seeds =
    List.map
      (fun rate ->
        let compiled = Compiled.compile_exn (lossy rate) in
        ( { rate; fill = 0 },
          1.0,
          Forward.prepare Forward.default_config compiled,
          Mstate.initial ~epoch:1.0 compiled ))
      [ 6_000.0; 12_000.0; 24_000.0 ]
  in
  let isender, _ = run_isender ~seeds ~truth:(lossy 12_000.0) ~duration:80.0 () in
  Alcotest.(check int) "no rejections under loss" 0 (Isender.rejected_updates isender);
  let best, _ = Belief.map_estimate (Isender.belief isender) in
  Alcotest.(check (float 0.0)) "rate identified despite loss" 12_000.0 best.rate;
  Alcotest.(check bool) "kept sending" true (Isender.sent_count isender > 40)

let suite =
  [
    ("planner rejects bad delays", `Quick, planner_rejects_bad_delays);
    ("planner sends on known empty net", `Quick, planner_sends_on_known_empty_net);
    ("planner defers under drop risk", `Quick, planner_defers_when_buffer_maybe_full);
    ("planner accounts pending", `Quick, planner_accounts_pending_sends);
    ("planner empty belief", `Quick, planner_empty_belief_sleeps);
    ("receiver routes and counts", `Quick, receiver_routes_and_counts);
    ("receiver queue and drops", `Quick, receiver_queue_and_drops);
    ("receiver per-flow queries match a delivery record", `Quick, receiver_flow_queries);
    ("isender tracks link speed", `Quick, isender_tracks_link_speed);
    ("isender tentative start", `Quick, isender_tentative_start);
    ("isender acks recorded", `Quick, isender_acks_recorded);
    ("isender wakeup hook", `Quick, isender_wakeup_hook_runs);
    ("isender journal follows the sink", `Quick, isender_journal_follows_the_sink);
    ("isender under loss", `Quick, isender_under_loss_keeps_consistency);
  ]

(* --- ISender's fixed clamps --- *)

(* An ISender whose decider always answers [decision], sending into
   nothing: its sends and the times of its wakeups up to [until]. *)
let clamped_run decision ~until =
  let engine = Engine.create ~seed:8 () in
  let belief = Belief.create [ seed_of { rate = 12_000.0; fill = 0 } 1.0 ] in
  let decide _ ~now:_ ~pending:_ ~make_packet:_ = (decision, []) in
  let isender = Isender.create ~decide engine Isender.default_config ~belief ~inject:ignore in
  let wakeups = ref [] in
  Isender.on_wakeup isender (fun now _ -> wakeups := now :: !wakeups);
  Isender.start isender;
  Engine.run ~until engine;
  (Isender.sent isender, List.rev !wakeups)

let isender_burst_cap () =
  let sent, wakeups = clamped_run Planner.Send_now ~until:0.0015 in
  Alcotest.(check int) "64 sends at t = 0" 64
    (List.length (List.filter (fun (t, _) -> t = 0.0) sent));
  Alcotest.(check (list (float 0.0))) "next wakeup 1 ms later" [ 0.0; 0.001 ] wakeups

let isender_sleep_clamps () =
  let sent, wakeups = clamped_run (Planner.Sleep 1000.0) ~until:150.0 in
  Alcotest.(check int) "no sends" 0 (List.length sent);
  Alcotest.(check (list (float 0.0))) "re-plans every 60 s" [ 0.0; 60.0; 120.0 ] wakeups;
  let _, wakeups = clamped_run (Planner.Sleep 1e-6) ~until:0.0035 in
  Alcotest.(check (list (float 1e-12))) "sleeps at least 1 ms" [ 0.0; 0.001; 0.002; 0.003 ] wakeups

let suite =
  suite
  @ [
      ("isender burst cap", `Quick, isender_burst_cap);
      ("isender sleep clamps", `Quick, isender_sleep_clamps);
    ]

(* --- Recovery ladder (pure transitions) --- *)

module Recovery = Utc_core.Recovery

(* The ladder's pace and healing constants, as DESIGN.md lists them. *)
let probe_interval = 1.0
let probe_decay = 0.8
let probe_interval_max = 16.0
let healthy_after = 5

let accepted ?(top_weight = 1.0) () = Recovery.Accepted { top_weight }

(* Feed a list of events, returning the final state and every action. *)
let drive t events =
  List.fold_left
    (fun (t, actions) event ->
      let t, action = Recovery.step t event in
      (t, action :: actions))
    (t, []) events
  |> fun (t, actions) -> (t, List.rev actions)

let ladder_escalates_and_fires () =
  let t = Recovery.initial () in
  Alcotest.(check bool) "starts healthy" true (Recovery.phase_equal Recovery.Healthy (Recovery.phase t));
  let t, a = Recovery.step t Recovery.Rejected in
  Alcotest.(check bool) "one rejection stays healthy" true
    (Recovery.phase_equal Recovery.Healthy (Recovery.phase t) && a = Recovery.No_action);
  let t, a = Recovery.step t Recovery.Rejected in
  Alcotest.(check bool) "two rejections make it suspect" true
    (Recovery.phase_equal Recovery.Suspect (Recovery.phase t) && a = Recovery.No_action);
  let t, a = drive t [ Recovery.Rejected; Recovery.Rejected ] in
  Alcotest.(check bool) "reseed_after fires on the streak's last rejection" true
    (a = [ Recovery.No_action; Recovery.Fire_reseed ]);
  Alcotest.(check bool) "probing after reseed" true
    (Recovery.phase_equal Recovery.Probing (Recovery.phase t));
  Alcotest.(check int) "one reseed" 1 (Recovery.reseeds t);
  let _, a = drive t (List.init (Recovery.reseed_after - 1) (fun _ -> Recovery.Rejected)) in
  Alcotest.(check bool) "streak cleared by reseed" true
    (List.for_all (fun a -> a = Recovery.No_action) a)

let ladder_suspect_clears_on_accept () =
  let t = Recovery.initial () in
  let t, _ = drive t [ Recovery.Rejected; Recovery.Rejected; Recovery.Rejected ] in
  Alcotest.(check bool) "suspect" true (Recovery.phase_equal Recovery.Suspect (Recovery.phase t));
  let t, a = Recovery.step t (accepted ()) in
  Alcotest.(check bool) "one consistent update clears suspicion" true
    (Recovery.phase_equal Recovery.Healthy (Recovery.phase t) && a = Recovery.No_action);
  let t, _ = Recovery.step t Recovery.Rejected in
  Alcotest.(check bool) "streak cleared" true
    (Recovery.phase_equal Recovery.Healthy (Recovery.phase t))

let reject n = List.init n (fun _ -> Recovery.Rejected)

let ladder_probe_backoff_and_decay () =
  let t = Recovery.initial () in
  let t, _ = drive t (reject Recovery.reseed_after) in
  Alcotest.(check (float 1e-9)) "probe starts at base interval" probe_interval
    (Recovery.interval t);
  (* A second full streak while probing fires again and backs off. *)
  let t, actions = drive t (reject Recovery.reseed_after) in
  Alcotest.(check bool) "second reseed fired" true (List.mem Recovery.Fire_reseed actions);
  Alcotest.(check int) "two reseeds" 2 (Recovery.reseeds t);
  Alcotest.(check bool) "interval backed off" true (Recovery.interval t > probe_interval);
  let widened = Recovery.interval t in
  (* Consistency decays the interval multiplicatively. *)
  let t, _ = Recovery.step t (accepted ~top_weight:0.1 ()) in
  Alcotest.(check (float 1e-9)) "decay" (widened *. probe_decay) (Recovery.interval t);
  (* Backoff is capped. *)
  let t, _ = drive t (reject (20 * Recovery.reseed_after)) in
  Alcotest.(check bool) "backoff capped" true (Recovery.interval t <= probe_interval_max +. 1e-9)

let ladder_reheals_when_reconcentrated () =
  let t = Recovery.initial () in
  let t, _ = drive t (reject Recovery.reseed_after) in
  (* Calm updates with a still-diffuse posterior do not re-heal... *)
  let diffuse = List.init (2 * healthy_after) (fun _ -> accepted ~top_weight:0.2 ()) in
  let t, _ = drive t diffuse in
  Alcotest.(check bool) "diffuse posterior keeps probing" true
    (Recovery.phase_equal Recovery.Probing (Recovery.phase t));
  (* ...and a rejection resets the calm streak. *)
  let t, _ = Recovery.step t Recovery.Rejected in
  let concentrated = List.init healthy_after (fun _ -> accepted ~top_weight:0.9 ()) in
  let t, _ = drive t (List.tl concentrated) in
  Alcotest.(check bool) "calm streak not yet long enough" true
    (Recovery.phase_equal Recovery.Probing (Recovery.phase t));
  let t, _ = Recovery.step t (accepted ~top_weight:0.9 ()) in
  Alcotest.(check bool) "re-healed" true (Recovery.phase_equal Recovery.Healthy (Recovery.phase t));
  Alcotest.(check (float 1e-9)) "interval reset on heal" probe_interval (Recovery.interval t)

let recovery_suite =
  [
    ("ladder escalates and fires", `Quick, ladder_escalates_and_fires);
    ("ladder suspect clears on accept", `Quick, ladder_suspect_clears_on_accept);
    ("ladder probe backoff and decay", `Quick, ladder_probe_backoff_and_decay);
    ("ladder reheals when reconcentrated", `Quick, ladder_reheals_when_reconcentrated);
  ]

let suite = suite @ recovery_suite
