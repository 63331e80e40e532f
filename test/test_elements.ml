(* Tests for the ground-truth interpreter, including its station
   disciplines (ARQ, RED, CoDel). *)
open Utc_net
module Engine = Utc_sim.Engine
module Runtime = Utc_elements.Runtime

let net ?(sources = [ Topology.endpoint Flow.Primary ]) shared = { Topology.sources; shared }

(* Build a runtime recording deliveries and drops; return helpers. *)
let build ?(seed = 1) topology =
  let engine = Engine.create ~seed () in
  let deliveries = ref [] in
  let drops = ref [] in
  let callbacks =
    Runtime.callbacks
      ~deliver:(fun flow pkt -> deliveries := (Engine.now engine, flow, pkt.Packet.seq) :: !deliveries)
      ~on_drop:(fun ~node_id:_ ~reason pkt -> drops := (Engine.now engine, reason, pkt.Packet.seq) :: !drops)
      ()
  in
  let runtime = Runtime.build engine (Compiled.compile_exn topology) callbacks in
  (engine, runtime, (fun () -> List.rev !deliveries), fun () -> List.rev !drops)

let send runtime engine ~at ~seq ?(flow = Flow.Primary) () =
  ignore
    (Engine.schedule ~prio:(Evprio.arrival flow) engine ~at (fun () ->
         Runtime.inject runtime flow (Packet.make ~flow ~seq ~sent_at:at ())))

let station_service_timing () =
  (* 12,000-bit packets at 12,000 bit/s: one second each, FIFO. *)
  let topology =
    net (Topology.series [ Topology.buffer ~capacity_bits:96_000; Topology.throughput ~rate_bps:12_000.0 ])
  in
  let engine, runtime, deliveries, _ = build topology in
  send runtime engine ~at:0.0 ~seq:0 ();
  send runtime engine ~at:0.1 ~seq:1 ();
  send runtime engine ~at:5.0 ~seq:2 ();
  Engine.run engine;
  Alcotest.(check bool) "timings" true
    (deliveries () = [ (1.0, Flow.Primary, 0); (2.0, Flow.Primary, 1); (6.0, Flow.Primary, 2) ])

let station_tail_drop () =
  (* Capacity of two queued packets; the third to queue is dropped. *)
  let topology =
    net (Topology.series [ Topology.buffer ~capacity_bits:24_000; Topology.throughput ~rate_bps:12_000.0 ])
  in
  let engine, runtime, deliveries, drops = build topology in
  (* seq 0 goes straight to service; 1 and 2 queue; 3 overflows. *)
  List.iteri (fun i () -> send runtime engine ~at:(0.01 *. float_of_int i) ~seq:i ()) [ (); (); (); () ];
  Engine.run engine;
  Alcotest.(check int) "three delivered" 3 (List.length (deliveries ()));
  match drops () with
  | [ (_, Runtime.Tail_drop, 3) ] -> ()
  | other -> Alcotest.failf "expected tail drop of seq 3, got %d drops" (List.length other)

let station_in_service_excluded_from_occupancy () =
  (* Capacity of exactly one packet: one in service plus one queued fit. *)
  let topology =
    net (Topology.series [ Topology.buffer ~capacity_bits:12_000; Topology.throughput ~rate_bps:12_000.0 ])
  in
  let engine, runtime, deliveries, drops = build topology in
  send runtime engine ~at:0.0 ~seq:0 ();
  send runtime engine ~at:0.1 ~seq:1 ();
  send runtime engine ~at:0.2 ~seq:2 ();
  Engine.run engine;
  Alcotest.(check int) "two delivered" 2 (List.length (deliveries ()));
  Alcotest.(check int) "one dropped" 1 (List.length (drops ()))

let delay_element () =
  let topology = net (Topology.delay ~seconds:0.5) in
  let engine, runtime, deliveries, _ = build topology in
  send runtime engine ~at:1.0 ~seq:0 ();
  Engine.run engine;
  Alcotest.(check bool) "delayed" true (deliveries () = [ (1.5, Flow.Primary, 0) ])

let loss_element_rate () =
  let topology = net (Topology.loss ~rate:0.3) in
  let engine, runtime, deliveries, drops = build topology in
  for i = 0 to 9_999 do
    send runtime engine ~at:(float_of_int i *. 0.001) ~seq:i ()
  done;
  Engine.run engine;
  let delivered = List.length (deliveries ()) in
  let dropped = List.length (drops ()) in
  Alcotest.(check int) "conservation" 10_000 (delivered + dropped);
  let rate = float_of_int dropped /. 10_000.0 in
  if Float.abs (rate -. 0.3) > 0.02 then Alcotest.failf "loss rate off: %g" rate

let loss_extremes () =
  let engine, runtime, deliveries, _ = build (net (Topology.loss ~rate:0.0)) in
  send runtime engine ~at:0.0 ~seq:0 ();
  Engine.run engine;
  Alcotest.(check int) "rate 0 delivers" 1 (List.length (deliveries ()));
  let engine, runtime, deliveries, drops = build (net (Topology.loss ~rate:1.0)) in
  send runtime engine ~at:0.0 ~seq:0 ();
  Engine.run engine;
  Alcotest.(check int) "rate 1 drops" 1 (List.length (drops ()));
  Alcotest.(check int) "rate 1 delivers none" 0 (List.length (deliveries ()))

let jitter_element () =
  let topology = net (Topology.jitter ~seconds:0.25 ~probability:0.5) in
  let engine, runtime, deliveries, _ = build topology in
  let n = 4_000 in
  for i = 0 to n - 1 do
    send runtime engine ~at:(float_of_int i) ~seq:i ()
  done;
  Engine.run engine;
  let jittered =
    List.length
      (List.filter (fun (t, _, seq) -> t > float_of_int seq +. 0.1) (deliveries ()))
  in
  Alcotest.(check int) "all delivered" n (List.length (deliveries ()));
  let rate = float_of_int jittered /. float_of_int n in
  if Float.abs (rate -. 0.5) > 0.03 then Alcotest.failf "jitter rate off: %g" rate

let squarewave_gate () =
  let topology = net (Topology.squarewave ~interval:10.0 ()) in
  let engine, runtime, deliveries, drops = build topology in
  send runtime engine ~at:5.0 ~seq:0 ();
  send runtime engine ~at:15.0 ~seq:1 ();
  (* connected again in [20, 30) *)
  send runtime engine ~at:25.0 ~seq:2 ();
  Engine.run ~until:40.0 engine;
  Alcotest.(check bool) "on/off/on" true
    (deliveries () = [ (5.0, Flow.Primary, 0); (25.0, Flow.Primary, 2) ]);
  match drops () with
  | [ (15.0, Runtime.Gate_closed, 1) ] -> ()
  | _ -> Alcotest.fail "expected gate drop at 15 s"

let squarewave_boundary () =
  (* A packet arriving exactly at the toggle instant sees the new state:
     gates toggle first (Evprio). *)
  let topology = net (Topology.squarewave ~interval:10.0 ()) in
  let engine, runtime, deliveries, drops = build topology in
  send runtime engine ~at:10.0 ~seq:0 ();
  send runtime engine ~at:20.0 ~seq:1 ();
  Engine.run ~until:30.0 engine;
  Alcotest.(check int) "dropped at 10" 1 (List.length (drops ()));
  Alcotest.(check bool) "delivered at 20" true (deliveries () = [ (20.0, Flow.Primary, 1) ])

let intermittent_statistics () =
  (* Over a long run with mtts = 5 s the gate should be connected about
     half the time: send probes every 0.1 s and count survivors. *)
  let topology = net (Topology.intermittent ~mean_time_to_switch:5.0 ()) in
  let engine, runtime, deliveries, drops = build topology ~seed:4 in
  let n = 40_000 in
  for i = 0 to n - 1 do
    send runtime engine ~at:(0.1 *. float_of_int i) ~seq:i ()
  done;
  Engine.run ~until:4100.0 engine;
  let delivered = List.length (deliveries ()) in
  Alcotest.(check int) "conservation" n (delivered + List.length (drops ()));
  let fraction = float_of_int delivered /. float_of_int n in
  if Float.abs (fraction -. 0.5) > 0.06 then Alcotest.failf "duty cycle off: %g" fraction

let pinger_cadence () =
  let topology =
    {
      Topology.sources = [ Topology.pinger ~flow:Flow.Cross ~rate_pps:2.0 () ];
      shared = Topology.series [];
    }
  in
  let engine, _, deliveries, _ = build topology in
  Engine.run ~until:2.6 engine;
  let times = List.map (fun (t, _, _) -> t) (deliveries ()) in
  Alcotest.(check bool) "emissions at k/r" true (times = [ 0.0; 0.5; 1.0; 1.5; 2.0; 2.5 ])

let diverter_routes_by_flow () =
  let shared =
    Topology.Diverter
      {
        routes = [ (Flow.Cross, Topology.delay ~seconds:10.0) ];
        otherwise = Topology.series [];
      }
  in
  let topology =
    net ~sources:[ Topology.endpoint Flow.Primary; Topology.endpoint Flow.Cross ] shared
  in
  let engine, runtime, deliveries, _ = build topology in
  send runtime engine ~at:1.0 ~seq:0 ();
  send runtime engine ~at:1.0 ~seq:0 ~flow:Flow.Cross ();
  Engine.run engine;
  Alcotest.(check bool) "primary direct, cross delayed" true
    (deliveries () = [ (1.0, Flow.Primary, 0); (11.0, Flow.Cross, 0) ])

let either_switches () =
  let shared =
    Topology.Either
      {
        first = Topology.series [];
        second = Topology.delay ~seconds:100.0;
        mean_time_to_switch = 2.0;
        initially_first = true;
      }
  in
  let engine, runtime, deliveries, _ = build (net shared) ~seed:9 in
  let n = 5_000 in
  for i = 0 to n - 1 do
    send runtime engine ~at:(0.01 *. float_of_int i) ~seq:i ()
  done;
  Engine.run ~until:200.0 engine;
  let direct =
    List.length (List.filter (fun (t, _, seq) -> t < (0.01 *. float_of_int seq) +. 1.0) (deliveries ()))
  in
  Alcotest.(check int) "all delivered eventually" n (List.length (deliveries ()));
  let fraction = float_of_int direct /. float_of_int n in
  if Float.abs (fraction -. 0.5) > 0.2 then Alcotest.failf "either split off: %g" fraction

let queue_introspection () =
  let topology =
    net (Topology.series [ Topology.buffer ~capacity_bits:96_000; Topology.throughput ~rate_bps:12_000.0 ])
  in
  let engine, runtime, _, _ = build topology in
  send runtime engine ~at:0.0 ~seq:0 ();
  send runtime engine ~at:0.1 ~seq:1 ();
  send runtime engine ~at:0.2 ~seq:2 ();
  Engine.run ~until:0.5 engine;
  Alcotest.(check int) "two queued" 2 (Runtime.queue_packets runtime ~node_id:0);
  Alcotest.(check int) "bits" 24_000 (Runtime.queue_bits runtime ~node_id:0);
  Alcotest.(check bool) "in service" true (Runtime.in_service runtime ~node_id:0)

(* --- Station disciplines --- *)

let station ?capacity_bits discipline ~rate_bps =
  net (Topology.station ?capacity_bits ~discipline ~rate_bps ())

(* Packets of seq [0..n-1] arriving every [1/rate] seconds. *)
let flood runtime engine ~rate ~n =
  for seq = 0 to n - 1 do
    send runtime engine ~at:(float_of_int seq /. rate) ~seq ()
  done

let red_drops_under_load () =
  let engine, runtime, deliveries, drops =
    build ~seed:2 (station ~capacity_bits:120_000 Topology.Red ~rate_bps:12_000.0)
  in
  (* Offered load 3x capacity. *)
  flood runtime engine ~rate:3.0 ~n:300;
  Engine.run engine;
  let delivered = List.length (deliveries ()) and dropped = List.length (drops ()) in
  Alcotest.(check int) "conservation" 300 (delivered + dropped);
  Alcotest.(check bool) "drops happened" true (dropped > 50);
  Alcotest.(check bool) "some delivered" true (delivered > 50);
  List.iter
    (fun (_, reason, _) ->
      Alcotest.(check string) "AQM drops report as tail drops" "tail_drop"
        (Format.asprintf "%a" Runtime.pp_drop_reason reason))
    (drops ())

let red_no_drops_light_load () =
  let engine, runtime, _, drops =
    build ~seed:2 (station ~capacity_bits:120_000 Topology.Red ~rate_bps:12_000.0)
  in
  flood runtime engine ~rate:0.5 ~n:100;
  Engine.run engine;
  Alcotest.(check int) "no drops" 0 (List.length (drops ()))

let codel_controls_sojourn () =
  let engine, runtime, deliveries, drops =
    build ~seed:2 (station ~capacity_bits:1_200_000 Topology.Codel ~rate_bps:120_000.0)
  in
  (* 1.5x overload for 60 s; packets stamped with their arrival time. *)
  flood runtime engine ~rate:15.0 ~n:900;
  Engine.run engine;
  Alcotest.(check bool) "codel drops" true (List.length (drops ()) > 0);
  (* Late sojourns should be pulled down near the target, far below the
     multi-second tail-drop delay the same load would build. *)
  let sojourns = List.map (fun (t, _, seq) -> t -. (float_of_int seq /. 15.0)) (deliveries ()) in
  let late = List.filteri (fun i _ -> i >= List.length sojourns / 2) sojourns in
  let mean = List.fold_left ( +. ) 0.0 late /. float_of_int (List.length late) in
  if mean > 1.0 then Alcotest.failf "codel mean sojourn too high: %g" mean

let arq ~try_loss = Topology.Arq { try_loss; per_try_overhead = 0.0 }

let arq_hides_loss () =
  let engine, runtime, deliveries, _ = build ~seed:3 (station (arq ~try_loss:0.4) ~rate_bps:12_000.0) in
  for i = 0 to 199 do
    send runtime engine ~at:(float_of_int i *. 2.0) ~seq:i ()
  done;
  Engine.run engine;
  Alcotest.(check int) "all delivered despite 40% radio loss" 200 (List.length (deliveries ()));
  (* Mean tries = 1/(1-0.4) = 1.67. *)
  let per = float_of_int (Runtime.transmissions runtime ~node_id:0) /. 200.0 in
  if Float.abs (per -. (1.0 /. 0.6)) > 0.15 then Alcotest.failf "tries per packet off: %g" per

(* Delivery and drop log with times as raw bits, for bit-identity. *)
let exact_log topology =
  let engine, runtime, deliveries, drops = build ~seed:4 topology in
  flood runtime engine ~rate:1.5 ~n:200;
  Engine.run engine;
  ( List.map (fun (t, _, seq) -> (Int64.bits_of_float t, seq)) (deliveries ()),
    List.map (fun (t, _, seq) -> (Int64.bits_of_float t, seq)) (drops ()) )

let arq_zero_loss_is_station () =
  (* Overloaded, so the comparison covers queueing and tail drops too. *)
  let fifo_d, fifo_dr = exact_log (station ~capacity_bits:60_000 Topology.Fifo ~rate_bps:12_000.0) in
  let arq_d, arq_dr = exact_log (station ~capacity_bits:60_000 (arq ~try_loss:0.0) ~rate_bps:12_000.0) in
  let log_t = Alcotest.(list (pair int64 int)) in
  Alcotest.check log_t "deliveries bit-identical" fifo_d arq_d;
  Alcotest.check log_t "drops bit-identical" fifo_dr arq_dr;
  if List.length fifo_dr = 0 then Alcotest.fail "the comparison never tail-dropped"

let arq_abandons_after_max_tries () =
  (* 1 ms per attempt; the link retries 100 times. *)
  let engine, runtime, deliveries, drops =
    build ~seed:3 (station (arq ~try_loss:0.99) ~rate_bps:12_000_000.0)
  in
  let n = 1000 in
  for i = 0 to n - 1 do
    send runtime engine ~at:(float_of_int i *. 0.1) ~seq:i ()
  done;
  Engine.run engine;
  let delivered = List.length (deliveries ()) in
  Alcotest.(check int) "conservation" n (delivered + List.length (drops ()));
  List.iter
    (fun (_, reason, _) ->
      Alcotest.(check string) "abandonment reports as stochastic loss" "stochastic_loss"
        (Format.asprintf "%a" Runtime.pp_drop_reason reason))
    (drops ());
  (* P(success within 100 tries) = 1 - 0.99^100 = 0.634. *)
  let rate = float_of_int delivered /. float_of_int n in
  if Float.abs (rate -. 0.634) > 0.06 then Alcotest.failf "success rate off: %g" rate

let discipline_validation () =
  let rejects name discipline ?capacity_bits () =
    match Topology.validate (station ?capacity_bits discipline ~rate_bps:12_000.0) with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s accepted" name
  in
  rejects "ARQ try loss 1" (Topology.Arq { try_loss = 1.0; per_try_overhead = 0.0 }) ();
  rejects "negative ARQ try loss" (Topology.Arq { try_loss = -0.1; per_try_overhead = 0.0 }) ();
  rejects "negative per-try overhead" (Topology.Arq { try_loss = 0.1; per_try_overhead = -0.01 }) ();
  rejects "RED without a capacity" Topology.Red ();
  match Topology.validate (station (arq ~try_loss:0.0) ~rate_bps:12_000.0) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "zero-loss ARQ rejected: %s" msg

let contains hay needle =
  let n = String.length needle in
  let rec scan i = i + n <= String.length hay && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

(* The belief interpreter and the fluid population model FIFO stations
   only; both refuse the other disciplines by node. *)
let non_fifo_rejected () =
  let topology =
    {
      Topology.sources = [ Topology.endpoint Flow.Cross ];
      shared =
        Topology.series
          [
            Topology.station ~capacity_bits:96_000 ~rate_bps:12_000.0 ();
            Topology.station ~capacity_bits:96_000 ~discipline:Topology.Red ~rate_bps:12_000.0 ();
          ];
    }
  in
  let compiled = Compiled.compile_exn topology in
  let expect_node name f =
    match f () with
    | () -> Alcotest.failf "%s accepted a RED station" name
    | exception Invalid_argument msg ->
      if not (contains msg "node 0" && contains msg "red") then
        Alcotest.failf "%s message does not name the node: %s" name msg
  in
  expect_node "Forward.prepare" (fun () ->
      ignore (Utc_model.Forward.prepare Utc_model.Forward.default_config compiled));
  expect_node "Fluid.build" (fun () ->
      ignore
        (Utc_elements.Fluid.build (Engine.create ()) compiled (Runtime.callbacks ())
           ~flow:Flow.Cross ~flows:10));
  let runtime = Runtime.build (Engine.create ()) compiled (Runtime.callbacks ()) in
  Alcotest.check_raises "couple refuses a RED station"
    (Invalid_argument "Runtime.couple: station is not FIFO") (fun () ->
      Runtime.couple runtime ~node_id:0
        { Runtime.arrived = ignore; held_bits = (fun () -> 0); service_time = (fun ~bits:_ ~rate_bps:_ -> 0.0) })

(* Packet conservation at any instant: every injected packet has been
   delivered or dropped, or is queued or in service. *)
let conservation_prop (name, discipline) =
  QCheck.Test.make ~name:(name ^ " station conserves packets") ~count:50
    QCheck.(
      triple small_nat
        (list_of_size Gen.(int_range 1 60) (float_bound_inclusive 2.0))
        (float_bound_inclusive 1.0))
    (fun (seed, gaps, horizon) ->
      let engine, runtime, deliveries, drops =
        build ~seed (station ~capacity_bits:60_000 discipline ~rate_bps:12_000.0)
      in
      let injected = ref 0 in
      let last =
        List.fold_left
          (fun at gap ->
            let at = at +. gap in
            ignore
              (Engine.schedule ~prio:(Evprio.arrival Flow.Primary) engine ~at (fun () ->
                   incr injected;
                   Runtime.inject runtime Flow.Primary
                     (Packet.make ~flow:Flow.Primary ~seq:!injected ~sent_at:at ())));
            at)
          0.0 gaps
      in
      Engine.run ~until:(horizon *. last) engine;
      let in_service = if Runtime.in_service runtime ~node_id:0 then 1 else 0 in
      !injected
      = List.length (deliveries ()) + List.length (drops ())
        + Runtime.queue_packets runtime ~node_id:0
        + in_service)

let suite =
  [
    ("station service timing", `Quick, station_service_timing);
    ("station tail drop", `Quick, station_tail_drop);
    ("station occupancy excludes service", `Quick, station_in_service_excluded_from_occupancy);
    ("delay", `Quick, delay_element);
    ("loss rate", `Quick, loss_element_rate);
    ("loss extremes", `Quick, loss_extremes);
    ("jitter", `Quick, jitter_element);
    ("squarewave gate", `Quick, squarewave_gate);
    ("squarewave boundary", `Quick, squarewave_boundary);
    ("intermittent statistics", `Quick, intermittent_statistics);
    ("pinger cadence", `Quick, pinger_cadence);
    ("diverter routes", `Quick, diverter_routes_by_flow);
    ("either switches", `Quick, either_switches);
    ("queue introspection", `Quick, queue_introspection);
    ("red drops under load", `Quick, red_drops_under_load);
    ("red light load", `Quick, red_no_drops_light_load);
    ("codel controls sojourn", `Quick, codel_controls_sojourn);
    ("arq hides loss", `Quick, arq_hides_loss);
    ("arq zero loss", `Quick, arq_zero_loss_is_station);
    ("arq abandons", `Quick, arq_abandons_after_max_tries);
    ("discipline validation", `Quick, discipline_validation);
    ("non-fifo stations rejected by node", `Quick, non_fifo_rejected);
  ]
  @ List.map
      (fun d -> QCheck_alcotest.to_alcotest (conservation_prop d))
      [
        ("fifo", Topology.Fifo);
        ("arq", Topology.Arq { try_loss = 0.5; per_try_overhead = 0.1 });
        ("red", Topology.Red);
        ("codel", Topology.Codel);
      ]

(* --- Multipath (S3.5 extension) --- *)

let multipath_round_robin_alternates () =
  let shared =
    Topology.multipath ~first:(Topology.delay ~seconds:0.1)
      ~second:(Topology.delay ~seconds:0.5) ()
  in
  let engine, runtime, deliveries, _ = build (net shared) in
  for i = 0 to 3 do
    send runtime engine ~at:(float_of_int i) ~seq:i ()
  done;
  Engine.run engine;
  let times = List.map (fun (t, _, seq) -> (seq, t)) (deliveries ()) in
  let sorted = List.sort compare times in
  Alcotest.(check bool) "alternating delays" true
    (sorted = [ (0, 0.1); (1, 1.5); (2, 2.1); (3, 3.5) ])

let multipath_reorders_packets () =
  (* Two sends 0.1 s apart; the first takes the slow path: delivery order
     inverts. *)
  let shared =
    Topology.multipath ~first:(Topology.delay ~seconds:1.0)
      ~second:(Topology.series []) ()
  in
  let engine, runtime, deliveries, _ = build (net shared) in
  send runtime engine ~at:0.0 ~seq:0 ();
  send runtime engine ~at:0.1 ~seq:1 ();
  Engine.run engine;
  let seqs = List.map (fun (_, _, seq) -> seq) (deliveries ()) in
  Alcotest.(check (list int)) "reordered" [ 1; 0 ] seqs

let multipath_random_split () =
  let shared =
    Topology.multipath ~policy:(`Random 0.25) ~first:(Topology.delay ~seconds:10.0)
      ~second:(Topology.series []) ()
  in
  let engine, runtime, deliveries, _ = build (net shared) ~seed:14 in
  let n = 8_000 in
  for i = 0 to n - 1 do
    send runtime engine ~at:(0.001 *. float_of_int i) ~seq:i ()
  done;
  Engine.run engine;
  let slow = List.length (List.filter (fun (t, _, seq) -> t > (0.001 *. float_of_int seq) +. 5.0) (deliveries ())) in
  Alcotest.(check int) "all delivered" n (List.length (deliveries ()));
  let fraction = float_of_int slow /. float_of_int n in
  if Float.abs (fraction -. 0.25) > 0.02 then Alcotest.failf "split off: %g" fraction

let multipath_validation () =
  let bad = net (Topology.multipath ~policy:(`Random 1.5) ~first:Topology.Deliver ~second:Topology.Deliver ()) in
  match Topology.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "probability 1.5 accepted"

let multipath_suite =
  [
    ("multipath round robin", `Quick, multipath_round_robin_alternates);
    ("multipath reorders", `Quick, multipath_reorders_packets);
    ("multipath random split", `Quick, multipath_random_split);
    ("multipath validation", `Quick, multipath_validation);
  ]

let suite = suite @ multipath_suite

(* --- Faults (deterministic misspecification injection) --- *)

module Faults = Utc_elements.Faults

let faults_topology =
  net
    (Topology.series
       [
         Topology.buffer ~capacity_bits:96_000;
         Topology.throughput ~rate_bps:12_000.0;
         Topology.loss ~rate:0.0;
       ])

let rate_flap_applies_at_next_service () =
  let engine, runtime, deliveries, _ = build faults_topology in
  let _faults =
    Faults.arm engine runtime ~seed:11
      [
        {
          Faults.from_ = 10.0;
          until = 1000.0;
          spec = Faults.Rate_flap { station = None; factor = 2.0 };
        };
      ]
  in
  send runtime engine ~at:0.0 ~seq:0 ();
  (* In service when the flap hits: keeps its already-scheduled 12k
     completion. *)
  send runtime engine ~at:9.5 ~seq:1 ();
  (* Served entirely inside the window: 24k bit/s, 0.5 s. *)
  send runtime engine ~at:20.0 ~seq:2 ();
  Engine.run ~until:30.0 engine;
  Alcotest.(check bool) "flap takes effect at next service start" true
    (deliveries ()
    = [ (1.0, Flow.Primary, 0); (10.5, Flow.Primary, 1); (20.5, Flow.Primary, 2) ])

let loss_burst_window () =
  let engine, runtime, deliveries, drops = build faults_topology in
  let _faults =
    Faults.arm engine runtime ~seed:11
      [ { Faults.from_ = 10.0; until = 20.0; spec = Faults.Loss_burst { node = None; rate = 1.0 } } ]
  in
  send runtime engine ~at:5.0 ~seq:0 ();
  send runtime engine ~at:12.0 ~seq:1 ();
  (* The window closes at 20 (half-open): this one survives. *)
  send runtime engine ~at:20.0 ~seq:2 ();
  Engine.run ~until:30.0 engine;
  Alcotest.(check int) "two delivered" 2 (List.length (deliveries ()));
  match drops () with
  | [ (_, Runtime.Stochastic_loss, 1) ] -> ()
  | other -> Alcotest.failf "expected seq 1 lost in the burst, got %d drops" (List.length other)

let ack_faults_compose () =
  (* Delay 0.5 s over the whole run, duplicates (p=1) 0.25 s after the
     delayed original. *)
  let engine = Engine.create ~seed:1 () in
  let acks = ref [] in
  let sink = ref (fun _ _ -> ()) in
  let callbacks =
    Runtime.callbacks ~deliver:(fun _ pkt -> !sink (Engine.now engine) pkt) ()
  in
  let runtime = Runtime.build engine (Compiled.compile_exn faults_topology) callbacks in
  let faults =
    Faults.arm engine runtime ~seed:11
      [
        { Faults.from_ = 0.0; until = 100.0; spec = Faults.Ack_delay { seconds = 0.5 } };
        {
          Faults.from_ = 0.0;
          until = 100.0;
          spec = Faults.Ack_duplicate { p = 1.0; delay = 0.25 };
        };
      ]
  in
  sink := Faults.wrap_ack faults (fun t pkt -> acks := (t, pkt.Packet.seq) :: !acks);
  send runtime engine ~at:0.0 ~seq:0 ();
  Engine.run ~until:10.0 engine;
  (* Delivery at 1.0; delayed ack at 1.5; duplicate at 1.75. *)
  Alcotest.(check bool) "delayed + duplicated" true (List.rev !acks = [ (1.5, 0); (1.75, 0) ])

let ack_drop_eats_acks () =
  let engine = Engine.create ~seed:1 () in
  let acks = ref 0 in
  let sink = ref (fun _ _ -> ()) in
  let callbacks =
    Runtime.callbacks ~deliver:(fun _ pkt -> !sink (Engine.now engine) pkt) ()
  in
  let runtime = Runtime.build engine (Compiled.compile_exn faults_topology) callbacks in
  let faults =
    Faults.arm engine runtime ~seed:11
      [ { Faults.from_ = 0.0; until = 100.0; spec = Faults.Ack_drop { p = 1.0 } } ]
  in
  sink := Faults.wrap_ack faults (fun _ _ -> incr acks);
  for i = 0 to 4 do
    send runtime engine ~at:(2.0 *. float_of_int i) ~seq:i ()
  done;
  Engine.run ~until:20.0 engine;
  Alcotest.(check int) "no acks through" 0 !acks;
  Alcotest.(check int) "all eaten" 5 (Faults.dropped_acks faults)

let fault_validation () =
  let engine, runtime, _, _ = build faults_topology in
  let arm schedule = ignore (Faults.arm engine runtime ~seed:1 schedule) in
  Alcotest.check_raises "empty window"
    (Invalid_argument "Faults: fault window must satisfy 0 <= from < until") (fun () ->
      arm [ { Faults.from_ = 5.0; until = 5.0; spec = Faults.Ack_drop { p = 0.5 } } ]);
  Alcotest.check_raises "bad probability"
    (Invalid_argument "Faults: ack drop probability out of [0, 1]") (fun () ->
      arm [ { Faults.from_ = 0.0; until = 1.0; spec = Faults.Ack_drop { p = 1.5 } } ]);
  Alcotest.check_raises "overlap on one channel"
    (Invalid_argument "Faults: overlapping windows target the same node or ack channel")
    (fun () ->
      arm
        [
          {
            Faults.from_ = 0.0;
            until = 10.0;
            spec = Faults.Rate_flap { station = None; factor = 2.0 };
          };
          {
            Faults.from_ = 5.0;
            until = 15.0;
            spec = Faults.Rate_flap { station = None; factor = 3.0 };
          };
        ]);
  (* Disjoint windows on the same channel are fine; distinct ack fault
     kinds may overlap. *)
  arm
    [
      { Faults.from_ = 0.0; until = 5.0; spec = Faults.Rate_flap { station = None; factor = 2.0 } };
      { Faults.from_ = 5.0; until = 10.0; spec = Faults.Rate_flap { station = None; factor = 3.0 } };
      { Faults.from_ = 0.0; until = 10.0; spec = Faults.Ack_drop { p = 0.5 } };
      { Faults.from_ = 0.0; until = 10.0; spec = Faults.Ack_delay { seconds = 0.5 } };
    ]

(* The replay contract: the whole run - delivered ack sequence and
   dropped-ack count - is a pure function of (seed, schedule). *)
let faults_run ~fault_seed ~schedule =
  let engine = Engine.create ~seed:2 () in
  let acks = ref [] in
  let sink = ref (fun _ _ -> ()) in
  let callbacks =
    Runtime.callbacks ~deliver:(fun _ pkt -> !sink (Engine.now engine) pkt) ()
  in
  let runtime = Runtime.build engine (Compiled.compile_exn faults_topology) callbacks in
  let faults = Faults.arm engine runtime ~seed:fault_seed schedule in
  sink := Faults.wrap_ack faults (fun t pkt -> acks := (t, pkt.Packet.seq) :: !acks);
  for i = 0 to 79 do
    send runtime engine ~at:(0.5 *. float_of_int i) ~seq:i ()
  done;
  Engine.run ~until:60.0 engine;
  (List.rev !acks, Faults.dropped_acks faults)

let replay_prop =
  QCheck.Test.make ~name:"(seed, schedule) replays the run bit-exactly" ~count:20
    QCheck.(
      triple (int_bound 10_000)
        (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0))
        (float_bound_inclusive 1.0))
    (fun (fault_seed, (drop_p, dup_p), loss_p) ->
      let schedule =
        [
          { Faults.from_ = 5.0; until = 25.0; spec = Faults.Ack_drop { p = drop_p } };
          {
            Faults.from_ = 10.0;
            until = 30.0;
            spec = Faults.Ack_duplicate { p = dup_p; delay = 0.25 };
          };
          { Faults.from_ = 15.0; until = 35.0; spec = Faults.Ack_delay { seconds = 0.5 } };
          { Faults.from_ = 8.0; until = 28.0; spec = Faults.Loss_burst { node = None; rate = loss_p } };
          {
            Faults.from_ = 12.0;
            until = 32.0;
            spec = Faults.Rate_flap { station = None; factor = 2.0 };
          };
        ]
      in
      faults_run ~fault_seed ~schedule = faults_run ~fault_seed ~schedule)

let faults_suite =
  [
    ("rate flap at next service", `Quick, rate_flap_applies_at_next_service);
    ("loss burst window", `Quick, loss_burst_window);
    ("ack faults compose", `Quick, ack_faults_compose);
    ("ack drop eats acks", `Quick, ack_drop_eats_acks);
    ("fault validation", `Quick, fault_validation);
    QCheck_alcotest.to_alcotest replay_prop;
  ]

let suite = suite @ faults_suite
