(* Tests for the network-element language: flows, packets, the topology
   AST, validation, normalization, and compilation. *)
open Utc_net

let flow_identity () =
  Alcotest.(check bool) "primary eq" true (Flow.equal Flow.Primary Flow.Primary);
  Alcotest.(check bool) "aux eq" true (Flow.equal (Flow.Aux 2) (Flow.Aux 2));
  Alcotest.(check bool) "aux neq" false (Flow.equal (Flow.Aux 1) (Flow.Aux 2));
  Alcotest.(check bool) "cross neq primary" false (Flow.equal Flow.Cross Flow.Primary);
  Alcotest.(check int) "compare orders" (-1)
    (compare (Flow.compare Flow.Primary Flow.Cross) 0);
  Alcotest.(check string) "to_string" "aux3" (Flow.to_string (Flow.Aux 3))

(* Negative Aux ids sit next to the ranks of Primary and Cross, where an
   offset-based order or hash would collide. *)
let flow_sample =
  Flow.
    [
      Primary; Cross; Aux 0; Aux 1; Aux 2; Aux 255; Aux (-1); Aux (-2); Aux (-3); Aux min_int;
      Aux (max_int - 2);
    ]

let flow_order_and_hash_agree_with_equal () =
  let sign c = Int.compare c 0 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let name = Format.asprintf "%a vs %a" Flow.pp a Flow.pp b in
          Alcotest.(check bool) (name ^ ": compare = 0 iff equal") (Flow.equal a b)
            (Flow.compare a b = 0);
          Alcotest.(check int) (name ^ ": antisymmetric") (sign (Flow.compare a b))
            (-sign (Flow.compare b a));
          Alcotest.(check bool) (name ^ ": hash = iff equal") (Flow.equal a b)
            (Flow.hash a = Flow.hash b);
          let packet flow = Packet.make ~flow ~seq:4 ~sent_at:0.0 () in
          Alcotest.(check bool) (name ^ ": packets compare = 0 iff equal") (Flow.equal a b)
            (Packet.compare (packet a) (packet b) = 0))
        flow_sample)
    flow_sample;
  (* Transitive: a sort puts every pair in the order compare gives it. *)
  let sorted = List.sort Flow.compare flow_sample in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j && Flow.compare a b >= 0 then
            Alcotest.failf "%a sorted before %a but not below it" Flow.pp a Flow.pp b)
        sorted)
    sorted;
  (* The values for Primary, Cross and non-negative Aux ids are pinned:
     probe orders and planner cache keys are built from them. *)
  Alcotest.(check (list int)) "hashes" [ 0; 1; 2; 3; 4; 257 ]
    (List.map Flow.hash Flow.[ Primary; Cross; Aux 0; Aux 1; Aux 2; Aux 255 ]);
  Alcotest.(check (list int)) "compares" [ -1; 1; -1; 1; -1; 1; 0 ]
    Flow.
      [
        compare Primary Cross;
        compare Cross Primary;
        compare Cross (Aux 0);
        compare (Aux 0) Primary;
        compare (Aux 3) (Aux 7);
        compare (Aux 7) (Aux 3);
        compare (Aux 5) (Aux 5);
      ]

let flow_rank_roundtrip () =
  List.iter
    (fun flow ->
      let rank = Flow.rank flow in
      match flow with
      | Flow.Aux n when n < 0 || n >= Sys.max_array_length - 2 ->
        Alcotest.(check int) (Flow.to_string flow ^ " has no rank") (-1) rank
      | Flow.Primary | Flow.Cross | Flow.Aux _ ->
        Alcotest.(check bool) "of_rank inverts rank" true (Flow.equal flow (Flow.of_rank rank)))
    flow_sample;
  Alcotest.(check (list int)) "dense ranks" [ 0; 1; 2; 257 ]
    (List.map Flow.rank Flow.[ Primary; Cross; Aux 0; Aux 255 ])

let packet_basics () =
  let pkt = Packet.make ~flow:Flow.Primary ~seq:5 ~sent_at:1.25 () in
  Alcotest.(check int) "default size" 12_000 pkt.Packet.bits;
  Alcotest.(check int) "default_bits constant" 12_000 Packet.default_bits;
  let custom = Packet.make ~bits:800 ~flow:Flow.Cross ~seq:0 ~sent_at:0.0 () in
  Alcotest.(check int) "custom size" 800 custom.Packet.bits;
  Alcotest.(check bool) "equal self" true (Packet.equal pkt pkt);
  Alcotest.(check bool) "not equal" false (Packet.equal pkt custom);
  Alcotest.(check bool) "ordered by flow then seq" true (Packet.compare pkt custom < 0)

let evprio_order () =
  Alcotest.(check bool) "gate first" true (Evprio.gate_toggle < Evprio.service_complete);
  Alcotest.(check bool) "complete before arrivals" true
    (Evprio.service_complete < Evprio.arrival Flow.Primary);
  Alcotest.(check bool) "primary before cross" true
    (Evprio.arrival Flow.Primary < Evprio.arrival Flow.Cross);
  Alcotest.(check bool) "cross before aux" true
    (Evprio.arrival Flow.Cross < Evprio.arrival (Flow.Aux 0));
  Alcotest.(check bool) "wakeup last" true
    (Evprio.arrival (Flow.Aux 5) < Evprio.endpoint_wakeup)

(* --- validation --- *)

let net shared = { Topology.sources = [ Topology.endpoint Flow.Primary ]; shared }

let expect_invalid name t =
  match Topology.validate t with
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s should be invalid" name

let validation_rejects_bad_parameters () =
  expect_invalid "zero buffer" (net (Topology.buffer ~capacity_bits:0));
  expect_invalid "negative rate" (net (Topology.throughput ~rate_bps:(-1.0)));
  expect_invalid "loss above 1" (net (Topology.loss ~rate:1.5));
  expect_invalid "loss below 0" (net (Topology.loss ~rate:(-0.1)));
  expect_invalid "negative delay" (net (Topology.delay ~seconds:(-2.0)));
  expect_invalid "bad jitter prob" (net (Topology.jitter ~seconds:0.1 ~probability:2.0));
  expect_invalid "zero mtts" (net (Topology.intermittent ~mean_time_to_switch:0.0 ()));
  expect_invalid "zero interval" (net (Topology.squarewave ~interval:0.0 ()));
  expect_invalid "no sources" { Topology.sources = []; shared = Topology.Deliver };
  expect_invalid "zero pinger rate"
    {
      Topology.sources = [ Topology.pinger ~flow:Flow.Cross ~rate_pps:0.0 () ];
      shared = Topology.Deliver;
    };
  expect_invalid "duplicate flows"
    {
      Topology.sources = [ Topology.endpoint Flow.Primary; Topology.endpoint Flow.Primary ];
      shared = Topology.Deliver;
    };
  expect_invalid "duplicate diverter route"
    (net
       (Topology.Diverter
          {
            routes = [ (Flow.Cross, Topology.Deliver); (Flow.Cross, Topology.Deliver) ];
            otherwise = Topology.Deliver;
          }))

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

(* A flow the rank-indexed tables cannot hold is an [Error] naming it,
   not an exception, whichever kind of source carries it. *)
let validation_rejects_unranked_flows () =
  let check name sources flow =
    match Topology.validate { Topology.sources; shared = Topology.Deliver } with
    | Ok () -> Alcotest.failf "%s should be invalid" name
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names %s" name msg (Flow.to_string flow))
        true
        (contains msg (Flow.to_string flow))
  in
  check "negative aux endpoint"
    [ Topology.endpoint Flow.Primary; Topology.endpoint (Flow.Aux (-1)) ]
    (Flow.Aux (-1));
  check "aux id past the array limit" [ Topology.endpoint (Flow.Aux max_int) ] (Flow.Aux max_int);
  check "negative aux pinger"
    [ Topology.endpoint Flow.Primary; Topology.pinger ~flow:(Flow.Aux (-2)) ~rate_pps:1.0 () ]
    (Flow.Aux (-2));
  match
    Compiled.compile
      { Topology.sources = [ Topology.endpoint (Flow.Aux (-3)) ]; shared = Topology.Deliver }
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "compile should refuse a negative aux endpoint"

let validation_accepts_figure2 () =
  let t =
    Topology.figure2 ~link_bps:12_000.0 ~buffer_bits:96_000 ~loss_rate:0.2 ~pinger_pps:0.7
      ~cross_gate:(Topology.intermittent ~mean_time_to_switch:100.0 ())
  in
  match Topology.validate t with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "figure2 invalid: %s" msg

(* --- normalization --- *)

let normalized shared = (Topology.normalize (net shared)).Topology.shared

let normalize_fuses_buffer_throughput () =
  let shared =
    Topology.series [ Topology.buffer ~capacity_bits:96_000; Topology.throughput ~rate_bps:12_000.0 ]
  in
  match normalized shared with
  | Topology.Station { capacity_bits = Some 96_000; rate_bps; discipline = Fifo } ->
    Alcotest.(check (float 0.0)) "rate kept" 12_000.0 rate_bps
  | other -> Alcotest.failf "expected fused station, got %a" Topology.pp_element other

let normalize_bare_throughput () =
  match normalized (Topology.throughput ~rate_bps:5_000.0) with
  | Topology.Station { capacity_bits = None; _ } -> ()
  | other -> Alcotest.failf "expected unbounded station, got %a" Topology.pp_element other

let normalize_drops_bare_buffer () =
  match normalized (Topology.series [ Topology.buffer ~capacity_bits:1000; Topology.delay ~seconds:0.1 ]) with
  | Topology.Delay _ -> ()
  | other -> Alcotest.failf "expected buffer to vanish, got %a" Topology.pp_element other

let normalize_flattens_nested_series () =
  let shared =
    Topology.series
      [
        Topology.series [ Topology.delay ~seconds:0.1 ];
        Topology.series
          [ Topology.buffer ~capacity_bits:1000; Topology.throughput ~rate_bps:100.0 ];
      ]
  in
  match normalized shared with
  | Topology.Series [ Topology.Delay _; Topology.Station { capacity_bits = Some 1000; _ } ] -> ()
  | other -> Alcotest.failf "unexpected: %a" Topology.pp_element other

let normalize_inside_diverter_and_either () =
  let shared =
    Topology.Diverter
      {
        routes = [ (Flow.Cross, Topology.throughput ~rate_bps:10.0) ];
        otherwise =
          Topology.Either
            {
              first = Topology.series [ Topology.buffer ~capacity_bits:10; Topology.throughput ~rate_bps:1.0 ];
              second = Topology.Deliver;
              mean_time_to_switch = 5.0;
              initially_first = true;
            };
      }
  in
  match normalized shared with
  | Topology.Diverter
      {
        routes = [ (_, Topology.Station { capacity_bits = None; _ }) ];
        otherwise = Topology.Either { first = Topology.Station { capacity_bits = Some 10; _ }; _ };
      } ->
    ()
  | other -> Alcotest.failf "unexpected: %a" Topology.pp_element other

let normalize_idempotent () =
  let t =
    Topology.figure2 ~link_bps:12_000.0 ~buffer_bits:96_000 ~loss_rate:0.2 ~pinger_pps:0.7
      ~cross_gate:(Topology.squarewave ~interval:100.0 ())
  in
  let once = Topology.normalize t in
  let twice = Topology.normalize once in
  Alcotest.(check bool) "idempotent" true (once = twice)

(* --- compilation --- *)

let compile_figure2 () =
  let t =
    Topology.figure2 ~link_bps:12_000.0 ~buffer_bits:96_000 ~loss_rate:0.2 ~pinger_pps:0.7
      ~cross_gate:(Topology.squarewave ~interval:100.0 ())
  in
  let compiled = Compiled.compile_exn t in
  Alcotest.(check int) "station+loss+gate" 3 (Compiled.node_count compiled);
  Alcotest.(check int) "one station" 1 (List.length (Compiled.station_ids compiled));
  let () =
    match Compiled.entry compiled Flow.Primary with
    | Compiled.To _ -> ()
    | Compiled.Deliver -> Alcotest.fail "primary entry should hit the station"
  in
  Alcotest.(check int) "one pinger" 1 (List.length compiled.Compiled.pingers)

let compile_rejects_invalid () =
  match Compiled.compile (net (Topology.loss ~rate:2.0)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected compile error"

let compile_empty_series_is_wire () =
  let compiled = Compiled.compile_exn (net (Topology.series [])) in
  Alcotest.(check int) "no nodes" 0 (Compiled.node_count compiled);
  match Compiled.entry compiled Flow.Primary with
  | Compiled.Deliver -> ()
  | Compiled.To _ -> Alcotest.fail "wire should deliver directly"

let compile_entry_missing () =
  let compiled = Compiled.compile_exn (net (Topology.series [])) in
  Alcotest.check_raises "no cross endpoint" Not_found (fun () ->
      ignore (Compiled.entry compiled Flow.Cross))

let compile_diverter_links () =
  let shared =
    Topology.Diverter
      {
        routes = [ (Flow.Cross, Topology.delay ~seconds:1.0) ];
        otherwise = Topology.Deliver;
      }
  in
  let compiled = Compiled.compile_exn (net shared) in
  Alcotest.(check int) "divert + delay" 2 (Compiled.node_count compiled)

(* 256 endpoints listed out of rank order plus a pinger. Even ids enter
   through a delay of their own id in seconds, odd ids straight into the
   shared station, so each flow's expected entry is known. *)
let compile_entry_256 () =
  let ids = List.init 256 (fun i -> (i * 97) mod 256) in
  let endpoint i =
    if i mod 2 = 0 then Topology.endpoint ~access:(Topology.delay ~seconds:(float_of_int i)) (Flow.Aux i)
    else Topology.endpoint (Flow.Aux i)
  in
  let compiled =
    Compiled.compile_exn
      {
        Topology.sources =
          List.map endpoint ids
          @ [ Topology.pinger ~access:(Topology.delay ~seconds:0.5) ~flow:Flow.Cross ~rate_pps:1.0 () ];
        shared = Topology.series [ Topology.buffer ~capacity_bits:96_000; Topology.throughput ~rate_bps:1e6 ];
      }
  in
  let station =
    match Compiled.station_ids compiled with
    | [ id ] -> id
    | _ -> Alcotest.fail "expected one station"
  in
  List.iter
    (fun i ->
      let flow = Flow.Aux i in
      match Compiled.entry compiled flow, i mod 2 = 0 with
      | Compiled.To id, true -> (
        match Compiled.node compiled id with
        | Compiled.Delay { seconds; next = Compiled.To next } ->
          Alcotest.(check (float 0.0)) (Flow.to_string flow ^ " delay") (float_of_int i) seconds;
          Alcotest.(check int) (Flow.to_string flow ^ " delay feeds the station") station next
        | _ -> Alcotest.failf "%s should enter through its delay" (Flow.to_string flow))
      | Compiled.To id, false ->
        Alcotest.(check int) (Flow.to_string flow ^ " enters the station") station id
      | Compiled.Deliver, _ -> Alcotest.failf "%s should not deliver directly" (Flow.to_string flow))
    ids;
  Alcotest.(check int) "the table ends at the last endpoint" 258
    (Array.length compiled.Compiled.entries);
  List.iter
    (fun flow ->
      Alcotest.check_raises (Flow.to_string flow ^ " has no endpoint") Not_found (fun () ->
          ignore (Compiled.entry compiled flow)))
    Flow.[ Cross; Primary; Aux 256; Aux 1_000_000; Aux (-1); Aux max_int ];
  match compiled.Compiled.pingers with
  | [ { Compiled.flow = Flow.Cross; entry = Compiled.To id; _ } ] -> (
    match Compiled.node compiled id with
    | Compiled.Delay { seconds = 0.5; _ } -> ()
    | _ -> Alcotest.fail "pinger should enter through its delay")
  | _ -> Alcotest.fail "expected the Cross pinger"

let topology_pp_smoke () =
  let t =
    Topology.figure2 ~link_bps:12_000.0 ~buffer_bits:96_000 ~loss_rate:0.2 ~pinger_pps:0.7
      ~cross_gate:(Topology.intermittent ~mean_time_to_switch:100.0 ())
  in
  let text = Format.asprintf "%a" Topology.pp t in
  Alcotest.(check bool) "mentions pinger" true (contains text "Pinger");
  Alcotest.(check bool) "mentions intermittent" true (contains text "Intermittent");
  let compiled = Compiled.compile_exn t in
  let text = Format.asprintf "%a" Compiled.pp compiled in
  Alcotest.(check bool) "mentions station" true (contains text "Station")

(* --- fluid backend boundary ---

   The hybrid seam's contract: with an empty background population the
   fluid interpreter degenerates to the direct runtime bit for bit, and
   the build-time validation rejects what the v1 integrator cannot
   model. *)

module Engine = Utc_sim.Engine

(* A path exercising every stochastic element the packet interpreter
   samples (loss, jitter, a gate on the pinger's access path) plus a
   queueing station — if RNG split order or event priorities diverged
   between the two interpreters, deliveries would differ in timing or
   content. *)
let boundary_topology =
  {
    Topology.sources =
      [
        Topology.endpoint Flow.Cross;
        Topology.pinger
          ~access:(Topology.intermittent ~mean_time_to_switch:3.0 ())
          ~flow:Flow.Primary ~rate_pps:5.0 ();
      ];
    shared =
      Topology.series
        [
          Topology.buffer ~capacity_bits:30_000;
          Topology.throughput ~rate_bps:50_000.0;
          Topology.delay ~seconds:0.01;
          Topology.jitter ~seconds:0.05 ~probability:0.3;
          Topology.loss ~rate:0.1;
        ];
  }

type boundary_log = {
  mutable deliveries : (int64 * string * int * int64) list;  (* time, flow, seq, sent_at *)
  mutable drops : (int64 * int * string * int) list;  (* time, node, reason, seq *)
}

let run_runtime_boundary ~seed ~until =
  let engine = Engine.create ~seed () in
  let compiled = Compiled.compile_exn boundary_topology in
  let log = { deliveries = []; drops = [] } in
  let cb =
    Utc_elements.Runtime.callbacks
      ~deliver:(fun flow pkt ->
        log.deliveries <-
          ( Int64.bits_of_float (Engine.now engine),
            Flow.to_string flow,
            pkt.Packet.seq,
            Int64.bits_of_float pkt.Packet.sent_at )
          :: log.deliveries)
      ~on_drop:(fun ~node_id ~reason pkt ->
        log.drops <-
          ( Int64.bits_of_float (Engine.now engine),
            node_id,
            Format.asprintf "%a" Utc_elements.Runtime.pp_drop_reason reason,
            pkt.Packet.seq )
          :: log.drops)
      ()
  in
  let runtime = Utc_elements.Runtime.build engine compiled cb in
  ignore runtime;
  Engine.run ~until engine;
  log

module Fluid = Utc_elements.Fluid

let run_fluid_boundary ~seed ~until ~background_flows =
  let engine = Engine.create ~seed () in
  let compiled = Compiled.compile_exn boundary_topology in
  let log = { deliveries = []; drops = [] } in
  let cb =
    Utc_elements.Runtime.callbacks
      ~deliver:(fun flow pkt ->
        log.deliveries <-
          ( Int64.bits_of_float (Engine.now engine),
            Flow.to_string flow,
            pkt.Packet.seq,
            Int64.bits_of_float pkt.Packet.sent_at )
          :: log.deliveries)
      ~on_drop:(fun ~node_id ~reason pkt ->
        log.drops <-
          ( Int64.bits_of_float (Engine.now engine),
            node_id,
            Format.asprintf "%a" Utc_elements.Runtime.pp_drop_reason reason,
            pkt.Packet.seq )
          :: log.drops)
      ()
  in
  let background = Fluid.population ~flow:Flow.Cross ~flows:background_flows () in
  let fluid = Fluid.build engine compiled cb ~background in
  Engine.run ~until engine;
  (log, fluid)

let delivery_t = Alcotest.(list (pair (pair int64 string) (pair int int64)))
let drop_t = Alcotest.(list (pair (pair int64 int) (pair string int)))

let pair_up log =
  ( List.map (fun (t, f, s, a) -> ((t, f), (s, a))) log.deliveries,
    List.map (fun (t, n, r, s) -> ((t, n), (r, s))) log.drops )

let fluid_degenerates_to_runtime () =
  List.iter
    (fun seed ->
      let truth = run_runtime_boundary ~seed ~until:60.0 in
      let fluid_log, fluid = run_fluid_boundary ~seed ~until:60.0 ~background_flows:0 in
      Alcotest.(check int) "no integrator ticks at zero background" 0 (Fluid.steps fluid);
      let td, tdr = pair_up truth and fd, fdr = pair_up fluid_log in
      Alcotest.check delivery_t
        (Printf.sprintf "deliveries bit-identical (seed %d)" seed)
        td fd;
      Alcotest.check drop_t (Printf.sprintf "drops bit-identical (seed %d)" seed) tdr fdr;
      if List.length td = 0 then Alcotest.fail "boundary run delivered nothing")
    [ 1; 7; 23 ]

let fluid_coupling_stays_foreground_only () =
  (* With background flows present the packet trajectory may shift (that
     is the coupling), but foreground packets must still flow end to end
     and the aggregates must stay finite. *)
  let log, fluid = run_fluid_boundary ~seed:7 ~until:60.0 ~background_flows:500 in
  if List.length log.deliveries = 0 then Alcotest.fail "foreground starved by the population";
  if Fluid.steps fluid = 0 then Alcotest.fail "integrator never ticked";
  let agg = Fluid.sample fluid in
  List.iter
    (fun v ->
      if not (Float.is_finite v) then Alcotest.fail "non-finite aggregate")
    [ agg.Fluid.mean_window_pkts; agg.Fluid.offered_pps; agg.Fluid.goodput_bps; agg.Fluid.rtt ]

let fluid_survives_tiny_rate_links () =
  (* Near-zero-rate links must not produce NaN/inf in the integrator:
     rates are validated positive, and every division is guarded by the
     rtt floor and the residual-rate clamp. *)
  let topo =
    {
      Topology.sources = [ Topology.endpoint Flow.Cross ];
      shared =
        Topology.series
          [ Topology.buffer ~capacity_bits:12_000; Topology.throughput ~rate_bps:1e-6 ];
    }
  in
  let engine = Engine.create ~seed:1 () in
  let fluid =
    Fluid.build engine
      (Compiled.compile_exn topo)
      (Utc_elements.Runtime.callbacks ())
      ~background:(Fluid.population ~flow:Flow.Cross ~flows:100 ())
  in
  Engine.run ~until:5.0 engine;
  let agg = Fluid.sample fluid in
  List.iter
    (fun v ->
      if not (Float.is_finite v) then Alcotest.fail "non-finite aggregate on tiny-rate link")
    [ agg.Fluid.mean_window_pkts; agg.Fluid.offered_pps; agg.Fluid.goodput_bps; agg.Fluid.rtt;
      agg.Fluid.loss_prob ];
  if agg.Fluid.loss_prob < 0.0 || agg.Fluid.loss_prob > 1.0 then
    Alcotest.failf "loss probability %g out of [0,1]" agg.Fluid.loss_prob

let expect_invalid_build name topo ~background =
  let engine = Engine.create ~seed:1 () in
  match Fluid.build engine (Compiled.compile_exn topo) (Utc_elements.Runtime.callbacks ()) ~background with
  | (_ : Fluid.t) -> Alcotest.failf "%s should be rejected" name
  | exception Invalid_argument _ -> ()

let fluid_build_validation () =
  let gateful =
    {
      Topology.sources = [ Topology.endpoint Flow.Cross ];
      shared =
        Topology.series
          [
            Topology.intermittent ~mean_time_to_switch:5.0 ();
            Topology.throughput ~rate_bps:50_000.0;
          ];
    }
  in
  expect_invalid_build "gate on the background path" gateful
    ~background:(Fluid.population ~flow:Flow.Cross ~flows:10 ());
  let plain =
    {
      Topology.sources = [ Topology.endpoint Flow.Cross ];
      shared = Topology.throughput ~rate_bps:50_000.0;
    }
  in
  expect_invalid_build "population flow without an endpoint" plain
    ~background:(Fluid.population ~flow:Flow.Primary ~flows:10 ());
  expect_invalid_build "class flow count over the bound" plain
    ~background:
      {
        Fluid.pop_flow = Flow.Cross;
        pkt_bits = Packet.default_bits;
        pop_classes = [ { Fluid.flows = Fluid.max_class_flows + 1; init_window_pkts = 1.0 } ];
      };
  let engine = Engine.create ~seed:1 () in
  match
    Fluid.build
      ~config:{ Fluid.default_config with dt = 0.0 }
      engine
      (Compiled.compile_exn plain)
      (Utc_elements.Runtime.callbacks ())
      ~background:(Fluid.population ~flow:Flow.Cross ~flows:10 ())
  with
  | (_ : Fluid.t) -> Alcotest.fail "dt = 0 should be rejected"
  | exception Invalid_argument _ -> ()

let suite =
  [
    ("flow identity", `Quick, flow_identity);
    ("flow order and hash agree with equal", `Quick, flow_order_and_hash_agree_with_equal);
    ("flow rank roundtrip", `Quick, flow_rank_roundtrip);
    ("packet basics", `Quick, packet_basics);
    ("evprio order", `Quick, evprio_order);
    ("validation rejects bad parameters", `Quick, validation_rejects_bad_parameters);
    ("validation rejects unranked flows", `Quick, validation_rejects_unranked_flows);
    ("validation accepts figure2", `Quick, validation_accepts_figure2);
    ("normalize fuses buffer+throughput", `Quick, normalize_fuses_buffer_throughput);
    ("normalize bare throughput", `Quick, normalize_bare_throughput);
    ("normalize drops bare buffer", `Quick, normalize_drops_bare_buffer);
    ("normalize flattens series", `Quick, normalize_flattens_nested_series);
    ("normalize inside diverter/either", `Quick, normalize_inside_diverter_and_either);
    ("normalize idempotent", `Quick, normalize_idempotent);
    ("compile figure2", `Quick, compile_figure2);
    ("compile rejects invalid", `Quick, compile_rejects_invalid);
    ("compile empty series", `Quick, compile_empty_series_is_wire);
    ("compile entry missing", `Quick, compile_entry_missing);
    ("compile entry 256 endpoints", `Quick, compile_entry_256);
    ("compile diverter", `Quick, compile_diverter_links);
    ("pp smoke", `Quick, topology_pp_smoke);
    ("fluid degenerates to runtime at zero background", `Quick, fluid_degenerates_to_runtime);
    ("fluid coupling keeps foreground flowing", `Quick, fluid_coupling_stays_foreground_only);
    ("fluid survives tiny-rate links", `Quick, fluid_survives_tiny_rate_links);
    ("fluid build validation", `Quick, fluid_build_validation);
  ]
