(* Tests for the belief-state interpreter: persistent states, forking
   semantics, likelihood handling, window cuts, compaction. *)
open Utc_net
module Mstate = Utc_model.Mstate
module Forward = Utc_model.Forward

let net ?(sources = [ Topology.endpoint Flow.Primary ]) shared = { Topology.sources; shared }

let station shared_rate capacity =
  net (Topology.series [ Topology.buffer ~capacity_bits:capacity; Topology.throughput ~rate_bps:shared_rate ])

let prepare ?(config = Forward.default_config) topology =
  let compiled = Compiled.compile_exn topology in
  (Forward.prepare config compiled, compiled)

let pkt ?(flow = Flow.Primary) ~seq ~at () = (at, Packet.make ~flow ~seq ~sent_at:at ())

let primary_deliveries (o : Forward.outcome) =
  List.filter
    (fun (d : Forward.delivery) -> Flow.equal d.packet.Packet.flow Flow.Primary)
    o.deliveries

let single = function
  | [ o ] -> o
  | outcomes -> Alcotest.failf "expected a single outcome, got %d" (List.length outcomes)

let deterministic_station_timings () =
  let prepared, compiled = prepare (station 12_000.0 96_000) in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let outcome =
    single (Forward.run prepared state ~sends:[ pkt ~seq:0 ~at:0.0 (); pkt ~seq:1 ~at:0.1 () ] ~until:10.0)
  in
  let times = List.map (fun (d : Forward.delivery) -> (d.time, d.packet.Packet.seq)) outcome.deliveries in
  Alcotest.(check bool) "fifo timings" true (times = [ (1.0, 0); (2.0, 1) ]);
  Alcotest.(check (float 1e-9)) "weight 1" 0.0 outcome.logw

let incremental_equals_oneshot () =
  (* Running 0->4->10 with sends split across windows must equal one run
     0->10: packets in flight survive in the persistent state. *)
  let prepared, compiled = prepare (station 12_000.0 96_000) in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let sends1 = [ pkt ~seq:0 ~at:0.5 (); pkt ~seq:1 ~at:3.5 () ] in
  let sends2 = [ pkt ~seq:2 ~at:4.5 () ] in
  let o1 = single (Forward.run prepared state ~sends:sends1 ~until:4.0) in
  let o2 = single (Forward.run prepared o1.Forward.state ~sends:sends2 ~until:10.0) in
  let both = o1.Forward.deliveries @ o2.Forward.deliveries in
  let oneshot = single (Forward.run prepared state ~sends:(sends1 @ sends2) ~until:10.0) in
  Alcotest.(check bool) "same deliveries" true (both = oneshot.Forward.deliveries);
  Alcotest.(check string) "same final state" (Mstate.canonical o2.Forward.state)
    (Mstate.canonical oneshot.Forward.state)

let tail_drop_in_model () =
  let prepared, compiled = prepare (station 12_000.0 12_000) in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let sends = [ pkt ~seq:0 ~at:0.0 (); pkt ~seq:1 ~at:0.1 (); pkt ~seq:2 ~at:0.2 () ] in
  let outcome = single (Forward.run prepared state ~sends ~until:10.0) in
  Alcotest.(check int) "third dropped silently" 2 (List.length outcome.Forward.deliveries)

let prefill_occupies_service_and_queue () =
  let prepared, compiled = prepare (station 12_000.0 96_000) in
  let prefill_packets =
    List.init 3 (fun i -> Packet.make ~flow:Flow.Cross ~seq:(-1 - i) ~sent_at:0.0 ())
  in
  let state = Mstate.initial ~prefill:[ (0, prefill_packets) ] ~epoch:1.0 compiled in
  Alcotest.(check int) "fullness counts service + queue" 36_000 (Mstate.station_bits state 0);
  let outcome = single (Forward.run prepared state ~sends:[ pkt ~seq:0 ~at:0.0 () ] ~until:10.0) in
  let ours = primary_deliveries outcome in
  (* Our packet waits behind 3 seconds of prefill. *)
  Alcotest.(check bool) "queued behind prefill" true
    (List.map (fun (d : Forward.delivery) -> d.time) ours = [ 4.0 ])

let likelihood_loss_scales_survival () =
  let topology = net (Topology.series [ Topology.throughput ~rate_bps:12_000.0; Topology.loss ~rate:0.25 ]) in
  let prepared, compiled = prepare topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let outcome = single (Forward.run prepared state ~sends:[ pkt ~seq:0 ~at:0.0 () ] ~until:5.0) in
  match primary_deliveries outcome with
  | [ d ] -> Alcotest.(check (float 1e-12)) "survive 0.75" 0.75 (Forward.survive_p prepared d)
  | _ -> Alcotest.fail "expected one annotated delivery"

let fork_loss_partitions_weight () =
  let config = { Forward.default_config with loss_mode = `Fork } in
  let topology = net (Topology.series [ Topology.throughput ~rate_bps:12_000.0; Topology.loss ~rate:0.25 ]) in
  let prepared, compiled = prepare ~config topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let outcomes = Forward.run prepared state ~sends:[ pkt ~seq:0 ~at:0.0 () ] ~until:5.0 in
  Alcotest.(check int) "two branches" 2 (List.length outcomes);
  let total = List.fold_left (fun acc (o : Forward.outcome) -> acc +. exp o.logw) 0.0 outcomes in
  Alcotest.(check (float 1e-9)) "weights partition" 1.0 total;
  let delivered_mass =
    List.fold_left
      (fun acc (o : Forward.outcome) ->
        if primary_deliveries o <> [] then acc +. exp o.logw else acc)
      0.0 outcomes
  in
  Alcotest.(check (float 1e-9)) "delivery mass = 1 - p" 0.75 delivered_mass

let loss_before_queue_always_forks () =
  (* A loss element in front of a station has lingering consequences, so
     likelihood mode must not be applied there. *)
  let topology = net (Topology.series [ Topology.loss ~rate:0.5; Topology.throughput ~rate_bps:12_000.0 ]) in
  let prepared, compiled = prepare topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let outcomes = Forward.run prepared state ~sends:[ pkt ~seq:0 ~at:0.0 () ] ~until:5.0 in
  Alcotest.(check int) "forks despite likelihood mode" 2 (List.length outcomes)

let jitter_forks () =
  let topology = net (Topology.jitter ~seconds:0.5 ~probability:0.3) in
  let prepared, compiled = prepare topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let outcomes = Forward.run prepared state ~sends:[ pkt ~seq:0 ~at:1.0 () ] ~until:5.0 in
  Alcotest.(check int) "two branches" 2 (List.length outcomes);
  let by_time =
    List.map
      (fun (o : Forward.outcome) ->
        match o.deliveries with
        | [ d ] -> (d.Forward.time, exp o.logw)
        | _ -> Alcotest.fail "one delivery per branch")
      outcomes
  in
  Alcotest.(check bool) "delayed branch w=0.3" true
    (List.exists (fun (t, w) -> t = 1.5 && Float.abs (w -. 0.3) < 1e-9) by_time);
  Alcotest.(check bool) "straight branch w=0.7" true
    (List.exists (fun (t, w) -> t = 1.0 && Float.abs (w -. 0.7) < 1e-9) by_time)

let gate_epoch_fork_probability () =
  let topology = net (Topology.intermittent ~mean_time_to_switch:10.0 ()) in
  let prepared, compiled = prepare topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  (* One epoch at t=1: the state flips with (1 - e^{-2/10}) / 2. *)
  let outcomes = Forward.run prepared state ~sends:[] ~until:1.5 in
  Alcotest.(check int) "stay + flip" 2 (List.length outcomes);
  let p_flip = 0.5 *. (1.0 -. exp (-0.2)) in
  let flipped =
    List.find
      (fun (o : Forward.outcome) -> not (Mstate.gate_connected o.Forward.state 0))
      outcomes
  in
  Alcotest.(check (float 1e-9)) "flip probability" p_flip (exp flipped.Forward.logw)

let frozen_gates_do_not_fork () =
  let config = { Forward.default_config with fork_gates = false } in
  let topology = net (Topology.intermittent ~mean_time_to_switch:10.0 ()) in
  let prepared, compiled = prepare ~config topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let outcomes = Forward.run prepared state ~sends:[] ~until:50.0 in
  Alcotest.(check int) "single branch" 1 (List.length outcomes)

let closed_gate_drops_in_model () =
  let topology =
    net
      (Topology.series
         [ Topology.squarewave ~interval:10.0 (); Topology.throughput ~rate_bps:12_000.0 ])
  in
  let prepared, compiled = prepare topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let sends = [ pkt ~seq:0 ~at:5.0 (); pkt ~seq:1 ~at:15.0 (); pkt ~seq:2 ~at:25.0 () ] in
  let outcome = single (Forward.run prepared state ~sends ~until:40.0) in
  let seqs = List.map (fun (d : Forward.delivery) -> d.packet.Packet.seq) outcome.deliveries in
  Alcotest.(check (list int)) "middle send gated off" [ 0; 2 ] seqs

let until_prio_cuts_window () =
  (* A pinger emission scheduled exactly at the cut time with priority 2
     must stay pending when until_prio is the endpoint wakeup class. *)
  let topology =
    {
      Topology.sources = [ Topology.pinger ~flow:Flow.Cross ~rate_pps:0.5 () ];
      shared = Topology.series [];
    }
  in
  let prepared, compiled = prepare topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let o1 =
    single
      (Forward.run ~until_prio:Evprio.endpoint_wakeup prepared state ~sends:[] ~until:2.0)
  in
  (* Emissions at 0 and 2; the one at exactly t=2 (prio 2 < 10) IS
     processed; at until_prio = 1 it would not be. *)
  Alcotest.(check int) "emissions incl. boundary" 2 (List.length o1.Forward.deliveries);
  let o2 =
    single (Forward.run ~until_prio:1 prepared state ~sends:[] ~until:2.0)
  in
  Alcotest.(check int) "boundary emission deferred" 1 (List.length o2.Forward.deliveries);
  (* The deferred event must still be pending and fire in the next window. *)
  let o3 = single (Forward.run prepared o2.Forward.state ~sends:[] ~until:2.0) in
  Alcotest.(check int) "fires next window" 1 (List.length o3.Forward.deliveries)

let sends_validation () =
  let prepared, compiled = prepare (station 12_000.0 96_000) in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let advanced = single (Forward.run prepared state ~sends:[] ~until:5.0) in
  Alcotest.check_raises "past send rejected"
    (Invalid_argument "Forward.run: send before state time") (fun () ->
      ignore (Forward.run prepared advanced.Forward.state ~sends:[ pkt ~seq:0 ~at:1.0 () ] ~until:10.0));
  Alcotest.check_raises "future send rejected"
    (Invalid_argument "Forward.run: send after until") (fun () ->
      ignore (Forward.run prepared state ~sends:[ pkt ~seq:0 ~at:6.0 () ] ~until:5.0))

let canonical_compaction_after_convergence () =
  (* Two histories: a packet lost at a fork vs delivered — after both
     branches drain, states of the 'delivered' branch equal a fresh state
     advanced to the same time. *)
  let config = { Forward.default_config with loss_mode = `Fork } in
  let topology = net (Topology.series [ Topology.throughput ~rate_bps:12_000.0; Topology.loss ~rate:0.5 ]) in
  let prepared, compiled = prepare ~config topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let outcomes = Forward.run prepared state ~sends:[ pkt ~seq:0 ~at:0.0 () ] ~until:10.0 in
  match outcomes with
  | [ a; b ] ->
    Alcotest.(check string) "branches reconverge" (Mstate.canonical a.Forward.state)
      (Mstate.canonical b.Forward.state)
  | _ -> Alcotest.fail "expected two branches"

let canonical_distinguishes_live_state () =
  let prepared, compiled = prepare (station 12_000.0 96_000) in
  ignore prepared;
  let state = Mstate.initial ~epoch:1.0 compiled in
  let prefilled =
    Mstate.initial
      ~prefill:[ (0, [ Packet.make ~flow:Flow.Cross ~seq:(-1) ~sent_at:0.0 () ]) ]
      ~epoch:1.0 compiled
  in
  Alcotest.(check bool) "different canonical" false
    (Mstate.canonical state = Mstate.canonical prefilled)

let queue_history_hash () =
  (* The same three queued packets behind one in service, reached by
     three push/pop histories with different front/back splits. *)
  let module Fqueue = Utc_sim.Fqueue in
  let _, compiled = prepare (station 12_000.0 96_000) in
  let packets = List.init 4 (fun i -> Packet.make ~flow:Flow.Cross ~seq:(-1 - i) ~sent_at:0.0 ()) in
  let prefilled = Mstate.initial ~prefill:[ (0, packets) ] ~epoch:1.0 compiled in
  let s = Mstate.station prefilled 0 in
  let queued = Fqueue.to_list s.Mstate.queue in
  let with_queue queue = Mstate.set_node prefilled 0 (Mstate.MStation { s with Mstate.queue }) in
  let push_all q ms = List.fold_left (fun q m -> Fqueue.push m q) q ms in
  let first = List.hd queued and second = List.nth queued 1 and third = List.nth queued 2 in
  let popped = Fqueue.drop (Fqueue.of_list [ first; first; second ]) in
  let states =
    [ prefilled; with_queue (push_all Fqueue.empty queued); with_queue (push_all popped [ third ]) ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool) "equal" true (Mstate.equal a b);
          Alcotest.(check int) "same hash" (Mstate.hash a) (Mstate.hash b))
        states)
    states;
  let shorter = with_queue (Fqueue.of_list (List.tl queued)) in
  Alcotest.(check bool) "a shorter queue differs" false (Mstate.equal prefilled shorter)

let branch_cap_enforced () =
  (* Ten jitter elements in series fork 2^10 ways; cap at 64. *)
  let config = { Forward.default_config with max_branches = 64 } in
  let topology =
    net (Topology.series (List.init 10 (fun _ -> Topology.jitter ~seconds:0.001 ~probability:0.5)))
  in
  let prepared, compiled = prepare ~config topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let outcomes = Forward.run prepared state ~sends:[ pkt ~seq:0 ~at:0.0 () ] ~until:1.0 in
  Alcotest.(check bool) "bounded" true (List.length outcomes <= 128)

(* Five memoryless-gate epochs fork 32 ways. Under a cap of 4 branches
   the search discards the lightest beyond it and counts each discard in
   [model.forward.branches_dropped]; under the default cap it discards
   none. *)
let branch_drops_counted () =
  let module Metrics = Utc_obs.Metrics in
  let dropped = Metrics.counter "model.forward.branches_dropped" in
  let run max_branches =
    let config = { Forward.default_config with max_branches } in
    let prepared, compiled = prepare ~config (net (Topology.intermittent ~mean_time_to_switch:10.0 ())) in
    let state = Mstate.initial ~epoch:1.0 compiled in
    Metrics.enable ();
    Metrics.reset ();
    Fun.protect
      ~finally:(fun () ->
        Metrics.disable ();
        Metrics.reset ())
      (fun () ->
        let outcomes = Forward.run prepared state ~sends:[] ~until:5.5 in
        (List.length outcomes, Metrics.count dropped))
  in
  let outcomes, drops = run 4 in
  Alcotest.(check bool) "at most 4 outcomes" true (outcomes <= 4);
  Alcotest.(check bool) "drops counted" true (drops > 0);
  let outcomes, drops = run Forward.default_config.Forward.max_branches in
  Alcotest.(check int) "every fork under the default cap" 32 outcomes;
  Alcotest.(check int) "no drops under the default cap" 0 drops

let mstate_pp_smoke () =
  let _, compiled = prepare (station 12_000.0 96_000) in
  let state = Mstate.initial ~epoch:1.0 compiled in
  Alcotest.(check bool) "prints" true (String.length (Format.asprintf "%a" Mstate.pp state) > 0)

let suite =
  [
    ("deterministic station timings", `Quick, deterministic_station_timings);
    ("incremental equals oneshot", `Quick, incremental_equals_oneshot);
    ("tail drop in model", `Quick, tail_drop_in_model);
    ("prefill semantics", `Quick, prefill_occupies_service_and_queue);
    ("likelihood loss scales survival", `Quick, likelihood_loss_scales_survival);
    ("fork loss partitions weight", `Quick, fork_loss_partitions_weight);
    ("loss before queue always forks", `Quick, loss_before_queue_always_forks);
    ("jitter forks", `Quick, jitter_forks);
    ("gate epoch fork probability", `Quick, gate_epoch_fork_probability);
    ("frozen gates do not fork", `Quick, frozen_gates_do_not_fork);
    ("closed gate drops", `Quick, closed_gate_drops_in_model);
    ("until_prio cuts window", `Quick, until_prio_cuts_window);
    ("sends validation", `Quick, sends_validation);
    ("canonical compaction", `Quick, canonical_compaction_after_convergence);
    ("canonical distinguishes state", `Quick, canonical_distinguishes_live_state);
    ("queue history does not change the hash", `Quick, queue_history_hash);
    ("branch drops are counted", `Quick, branch_drops_counted);
    ("branch cap", `Quick, branch_cap_enforced);
    ("mstate pp", `Quick, mstate_pp_smoke);
  ]

(* --- multipath model state across windows --- *)

let multipath_round_robin_state_persists () =
  let topology =
    net
      (Topology.multipath
         ~first:(Topology.delay ~seconds:0.1)
         ~second:(Topology.delay ~seconds:0.5)
         ())
  in
  let prepared, compiled = prepare topology in
  let state = Mstate.initial ~epoch:1.0 compiled in
  (* First window: one packet takes the first path. *)
  let o1 = single (Forward.run prepared state ~sends:[ pkt ~seq:0 ~at:0.0 () ] ~until:1.0) in
  Alcotest.(check bool) "first path" true
    (List.map (fun (d : Forward.delivery) -> d.Forward.time) o1.Forward.deliveries = [ 0.1 ]);
  (* Second window: the alternation state survived, so path two. *)
  let o2 =
    single (Forward.run prepared o1.Forward.state ~sends:[ pkt ~seq:1 ~at:2.0 () ] ~until:3.0)
  in
  Alcotest.(check bool) "second path" true
    (List.map (fun (d : Forward.delivery) -> d.Forward.time) o2.Forward.deliveries = [ 2.5 ])

let station_bits_accounting () =
  let prepared, compiled = prepare (station 12_000.0 96_000) in
  ignore prepared;
  let state = Mstate.initial ~epoch:1.0 compiled in
  Alcotest.(check int) "empty" 0 (Mstate.station_bits state 0);
  Alcotest.check_raises "not a gate"
    (Invalid_argument "Mstate.gate_connected: node is not a gate") (fun () ->
      ignore (Mstate.gate_connected state 0))

(* [equal] and [converged] run at every time boundary of a resumed
   candidate and at every compaction probe, so they must allocate
   nothing. The two fig2 states are built apart, mid-run: a packet in
   service, a queue whose back list holds a packet, the pinger's and
   the periodic gate's pending events. *)
let comparison_allocates_nothing () =
  let topology =
    Topology.figure2 ~link_bps:12_000.0 ~buffer_bits:96_000 ~loss_rate:0.2 ~pinger_pps:0.7
      ~cross_gate:(Topology.squarewave ~interval:100.0 ())
  in
  let state () =
    let prepared, compiled = prepare topology in
    let sends = [ pkt ~seq:0 ~at:0.5 (); pkt ~seq:1 ~at:0.6 (); pkt ~seq:2 ~at:0.7 () ] in
    (single (Forward.run prepared (Mstate.initial ~epoch:1.0 compiled) ~sends ~until:1.5)).Forward.state
  in
  let a = state () and b = state () in
  Alcotest.(check bool) "built apart" false (a == b);
  Alcotest.(check bool) "equal" true (Mstate.equal a b);
  let words f =
    let before = Gc.minor_words () in
    for _ = 1 to 1_000 do
      ignore (Sys.opaque_identity (f ()))
    done;
    Gc.minor_words () -. before
  in
  let empty = words (fun () -> true) in
  Alcotest.(check (float 0.0)) "equal" empty (words (fun () -> Mstate.equal a b));
  Alcotest.(check (float 0.0)) "converged" empty (words (fun () -> Mstate.converged a b))

let model_extra_suite =
  [
    ("multipath rr state persists", `Quick, multipath_round_robin_state_persists);
    ("station bits accounting", `Quick, station_bits_accounting);
    ("state comparison allocates nothing", `Quick, comparison_allocates_nothing);
  ]

let suite = suite @ model_extra_suite
