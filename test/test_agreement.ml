(* The reproduction's load-bearing invariant: the ground-truth runtime and
   the belief-state interpreter agree bit-exactly on deterministic
   configurations, and statistically on stochastic ones. *)
open Utc_net
module Engine = Utc_sim.Engine
module Runtime = Utc_elements.Runtime
module Forward = Utc_model.Forward
module Mstate = Utc_model.Mstate

let ground_truth ?(seed = 42) ~topology ~sends ~until () =
  let engine = Engine.create ~seed () in
  let deliveries = ref [] in
  let callbacks =
    Runtime.callbacks
      ~deliver:(fun flow pkt ->
        deliveries := (Engine.now engine, flow, pkt.Packet.seq) :: !deliveries)
      ()
  in
  let runtime = Runtime.build engine (Compiled.compile_exn topology) callbacks in
  List.iter
    (fun (at, pkt) ->
      ignore
        (Engine.schedule ~prio:(Evprio.arrival pkt.Packet.flow) engine ~at (fun () ->
             Runtime.inject runtime pkt.Packet.flow pkt)))
    sends;
  Engine.run ~until engine;
  List.rev !deliveries

let model_run ?(config = Forward.default_config) ~topology ~sends ~until () =
  let compiled = Compiled.compile_exn topology in
  let prepared = Forward.prepare config compiled in
  let state = Mstate.initial ~epoch:config.Forward.epoch compiled in
  Forward.run prepared state ~sends ~until

let delivery_list (o : Forward.outcome) =
  List.map
    (fun (d : Forward.delivery) -> (d.Forward.time, d.packet.Packet.flow, d.packet.Packet.seq))
    o.Forward.deliveries

let primary_sends times =
  List.map (fun (at, seq) -> (at, Packet.make ~flow:Flow.Primary ~seq ~sent_at:at ())) times

let check_exact ~topology ~sends ~until =
  let gt = ground_truth ~topology ~sends ~until () in
  match model_run ~topology ~sends ~until () with
  | [ outcome ] ->
    Alcotest.(check bool)
      (Printf.sprintf "%d deliveries bit-identical" (List.length gt))
      true
      (gt = delivery_list outcome && gt <> [])
  | outcomes -> Alcotest.failf "expected deterministic single outcome, got %d" (List.length outcomes)

let figure2_squarewave () =
  let topology =
    Topology.figure2 ~link_bps:12_000.0 ~buffer_bits:96_000 ~loss_rate:0.0 ~pinger_pps:0.7
      ~cross_gate:(Topology.squarewave ~interval:100.0 ())
  in
  let sends = primary_sends [ (0.5, 0); (3.0, 1); (3.1, 2); (5.0, 3); (20.0, 4); (101.0, 5); (110.0, 6) ] in
  check_exact ~topology ~sends ~until:150.0

let tie_at_pinger_emission () =
  (* A primary send colliding exactly with a pinger emission instant. *)
  let topology =
    Topology.figure2 ~link_bps:12_000.0 ~buffer_bits:96_000 ~loss_rate:0.0 ~pinger_pps:0.5
      ~cross_gate:(Topology.series [])
  in
  let sends = primary_sends [ (2.0, 0); (4.0, 1); (6.0, 2) ] in
  check_exact ~topology ~sends ~until:30.0

let multi_station_chain () =
  let topology =
    {
      Topology.sources = [ Topology.endpoint Flow.Primary ];
      shared =
        Topology.series
          [
            Topology.buffer ~capacity_bits:48_000;
            Topology.throughput ~rate_bps:24_000.0;
            Topology.delay ~seconds:0.05;
            Topology.buffer ~capacity_bits:24_000;
            Topology.throughput ~rate_bps:12_000.0;
          ];
    }
  in
  let sends = primary_sends (List.init 12 (fun i -> (0.2 *. float_of_int i, i))) in
  check_exact ~topology ~sends ~until:60.0

let diverter_paths () =
  let topology =
    {
      Topology.sources =
        [
          Topology.endpoint Flow.Primary;
          Topology.pinger ~flow:Flow.Cross ~rate_pps:0.4 ();
        ];
      shared =
        Topology.Diverter
          {
            routes = [ (Flow.Cross, Topology.delay ~seconds:0.7) ];
            otherwise =
              Topology.series
                [ Topology.buffer ~capacity_bits:60_000; Topology.throughput ~rate_bps:12_000.0 ];
          };
    }
  in
  let sends = primary_sends [ (0.3, 0); (1.1, 1); (1.2, 2) ] in
  check_exact ~topology ~sends ~until:20.0

let overflow_agreement () =
  (* Tail drops must happen at the same arrivals in both interpreters. *)
  let topology =
    {
      Topology.sources = [ Topology.endpoint Flow.Primary ];
      shared =
        Topology.series
          [ Topology.buffer ~capacity_bits:24_000; Topology.throughput ~rate_bps:12_000.0 ];
    }
  in
  let sends = primary_sends (List.init 10 (fun i -> (0.05 *. float_of_int i, i))) in
  check_exact ~topology ~sends ~until:30.0

let loss_statistical_agreement () =
  (* With last-mile loss, ground-truth delivery count over many packets
     should match the model's survive_p mass. *)
  let topology =
    {
      Topology.sources = [ Topology.endpoint Flow.Primary ];
      shared = Topology.series [ Topology.throughput ~rate_bps:1_200_000.0; Topology.loss ~rate:0.2 ];
    }
  in
  let n = 5_000 in
  let sends = primary_sends (List.init n (fun i -> (0.02 *. float_of_int i, i))) in
  let until = 200.0 in
  let gt = ground_truth ~topology ~sends ~until () in
  let model = Forward.prepare Forward.default_config (Compiled.compile_exn topology) in
  let expected =
    match model_run ~topology ~sends ~until () with
    | [ outcome ] ->
      List.fold_left
        (fun acc (d : Forward.delivery) -> acc +. Forward.survive_p model d)
        0.0 outcome.Forward.deliveries
    | _ -> Alcotest.fail "likelihood mode should not fork"
  in
  let observed = float_of_int (List.length gt) in
  Alcotest.(check (float 1e-9)) "model mass = n(1-p)" (0.8 *. float_of_int n) expected;
  if Float.abs (observed -. expected) > 80.0 then
    Alcotest.failf "loss agreement off: observed %g expected %g" observed expected

let squarewave_model_covers_intermittent_truth () =
  (* The §4 situation reversed: when the model uses the same squarewave as
     the truth, the (single) branch agrees even across toggles at exactly
     packet instants. *)
  let topology =
    Topology.figure2 ~link_bps:12_000.0 ~buffer_bits:96_000 ~loss_rate:0.0 ~pinger_pps:0.25
      ~cross_gate:(Topology.squarewave ~interval:4.0 ())
  in
  let sends = primary_sends (List.init 8 (fun i -> (2.0 *. float_of_int i, i))) in
  check_exact ~topology ~sends ~until:40.0

let fork_covers_truth () =
  (* With an Intermittent model of a square-wave truth, at least one fork
     of the model must reproduce the ground-truth deliveries exactly (the
     fork whose gate history matches the wave). *)
  let truth =
    Topology.figure2 ~link_bps:12_000.0 ~buffer_bits:96_000 ~loss_rate:0.0 ~pinger_pps:0.7
      ~cross_gate:(Topology.squarewave ~interval:5.0 ())
  in
  let model =
    Topology.figure2 ~link_bps:12_000.0 ~buffer_bits:96_000 ~loss_rate:0.0 ~pinger_pps:0.7
      ~cross_gate:(Topology.intermittent ~mean_time_to_switch:5.0 ())
  in
  let sends = primary_sends [ (0.5, 0); (2.5, 1); (6.0, 2); (8.5, 3) ] in
  let until = 11.0 in
  let gt = ground_truth ~topology:truth ~sends ~until () in
  let outcomes = model_run ~topology:model ~sends ~until () in
  let matching =
    List.filter (fun o -> delivery_list o = gt) outcomes
  in
  Alcotest.(check bool) "some fork matches the square wave" true (matching <> []);
  (* And the matching branches carry nonzero probability. *)
  List.iter
    (fun (o : Forward.outcome) ->
      Alcotest.(check bool) "positive weight" true (exp o.Forward.logw > 0.0))
    matching

let suite =
  [
    ("figure2 squarewave exact", `Quick, figure2_squarewave);
    ("tie at pinger emission", `Quick, tie_at_pinger_emission);
    ("multi-station chain exact", `Quick, multi_station_chain);
    ("diverter paths exact", `Quick, diverter_paths);
    ("overflow agreement", `Quick, overflow_agreement);
    ("loss statistical agreement", `Quick, loss_statistical_agreement);
    ("squarewave model exact", `Quick, squarewave_model_covers_intermittent_truth);
    ("intermittent fork covers truth", `Quick, fork_covers_truth);
  ]

(* --- property: random deterministic topologies agree bit-exactly --- *)

let gen_element =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map2
            (fun rate cap ->
              Topology.series
                [
                  Topology.buffer ~capacity_bits:cap; Topology.throughput ~rate_bps:rate;
                ])
            (oneofl [ 6_000.0; 12_000.0; 24_000.0 ])
            (oneofl [ 24_000; 48_000; 96_000 ]) );
        (2, map (fun s -> Topology.delay ~seconds:s) (oneofl [ 0.05; 0.25; 0.5; 1.0 ]));
        ( 1,
          map2
            (fun interval on -> Topology.squarewave ~initially_connected:on ~interval ())
            (oneofl [ 3.0; 7.0; 12.0 ])
            bool );
        ( 1,
          map2
            (fun a b ->
              Topology.multipath
                ~first:(Topology.delay ~seconds:a)
                ~second:(Topology.delay ~seconds:b)
                ())
            (oneofl [ 0.1; 0.4 ])
            (oneofl [ 0.9; 1.6 ]) );
      ])

let gen_case =
  QCheck.Gen.(
    let* depth = int_range 1 4 in
    let* elements = list_size (return depth) gen_element in
    let* with_pinger = bool in
    let* pinger_rate = oneofl [ 0.3; 0.5 ] in
    let* send_count = int_range 2 10 in
    let* raw_times = list_size (return send_count) (float_bound_exclusive 30.0) in
    let times = List.sort_uniq compare (List.map (fun t -> Float.round (t *. 20.0) /. 20.0) raw_times) in
    let sources =
      Topology.endpoint Flow.Primary
      ::
      (if with_pinger then [ Topology.pinger ~flow:Flow.Cross ~rate_pps:pinger_rate () ] else [])
    in
    return ({ Topology.sources; shared = Topology.series elements }, times))

let arbitrary_case =
  QCheck.make gen_case ~print:(fun (topology, times) ->
      Format.asprintf "%a with sends at %a" Topology.pp topology
        Fmt.(Dump.list float)
        times)

let agreement_prop =
  QCheck.Test.make ~name:"random deterministic topologies agree bit-exactly" ~count:60
    arbitrary_case
    (fun (topology, times) ->
      QCheck.assume (Topology.validate topology = Ok ());
      let sends = primary_sends (List.mapi (fun i t -> (t, i)) times) in
      let until = 60.0 in
      let gt = ground_truth ~topology ~sends ~until () in
      match model_run ~topology ~sends ~until () with
      | [ outcome ] -> delivery_list outcome = gt
      | _ -> false)

let fork_mass_prop =
  (* With forking loss, outcome weights always partition to 1. *)
  QCheck.Test.make ~name:"fork-mode outcome weights sum to 1" ~count:40
    QCheck.(pair (float_range 0.05 0.95) (int_range 1 6))
    (fun (rate, sends) ->
      let topology =
        {
          Topology.sources = [ Topology.endpoint Flow.Primary ];
          shared =
            Topology.series
              [ Topology.loss ~rate; Topology.throughput ~rate_bps:12_000.0 ];
        }
      in
      let config = { Forward.default_config with loss_mode = `Fork } in
      let sends = primary_sends (List.init sends (fun i -> (float_of_int i, i))) in
      let outcomes = model_run ~config ~topology ~sends ~until:30.0 () in
      let total = List.fold_left (fun acc (o : Forward.outcome) -> acc +. exp o.Forward.logw) 0.0 outcomes in
      Float.abs (total -. 1.0) < 1e-9)

let property_suite =
  [
    QCheck_alcotest.to_alcotest agreement_prop;
    QCheck_alcotest.to_alcotest fork_mass_prop;
  ]

let suite = suite @ property_suite

(* --- Multipath agreement --- *)

let multipath_round_robin_exact () =
  (* Deterministic round-robin across asymmetric sub-paths reorders
     packets; both interpreters must agree bit-exactly, including the
     alternation state across incremental windows. *)
  let topology =
    {
      Topology.sources = [ Topology.endpoint Flow.Primary ];
      shared =
        Topology.multipath
          ~first:
            (Topology.series
               [ Topology.buffer ~capacity_bits:48_000; Topology.throughput ~rate_bps:24_000.0 ])
          ~second:(Topology.delay ~seconds:1.7)
          ();
    }
  in
  let sends = primary_sends (List.init 9 (fun i -> (0.3 *. float_of_int i, i))) in
  check_exact ~topology ~sends ~until:30.0

let multipath_random_fork_mass () =
  let topology =
    {
      Topology.sources = [ Topology.endpoint Flow.Primary ];
      shared =
        Topology.multipath ~policy:(`Random 0.3) ~first:(Topology.delay ~seconds:0.5)
          ~second:(Topology.series [])
          ();
    }
  in
  let sends = primary_sends [ (0.0, 0); (1.0, 1) ] in
  let outcomes = model_run ~topology ~sends ~until:10.0 () in
  Alcotest.(check int) "2 packets x 2 paths = 4 branches" 4 (List.length outcomes);
  let total = List.fold_left (fun acc (o : Forward.outcome) -> acc +. exp o.Forward.logw) 0.0 outcomes in
  Alcotest.(check (float 1e-9)) "mass partitions" 1.0 total;
  (* Branch with both packets on the slow path has weight 0.09. *)
  let both_slow =
    List.filter
      (fun (o : Forward.outcome) ->
        List.for_all (fun (d : Forward.delivery) -> d.Forward.time > d.packet.Packet.sent_at +. 0.4)
          o.Forward.deliveries)
      outcomes
  in
  match both_slow with
  | [ o ] -> Alcotest.(check (float 1e-9)) "0.3^2" 0.09 (exp o.Forward.logw)
  | _ -> Alcotest.fail "expected exactly one both-slow branch"

let multipath_suite =
  [
    ("multipath round-robin exact", `Quick, multipath_round_robin_exact);
    ("multipath random fork mass", `Quick, multipath_random_fork_mass);
  ]

let suite = suite @ multipath_suite

(* --- shared-prefix pricing: trace/resume equals full runs, bit for bit --- *)

module Planner = Utc_core.Planner
module Belief = Utc_inference.Belief
module Utility = Utc_utility.Utility

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_delivery (a : Forward.delivery) (b : Forward.delivery) =
  same_float a.Forward.time b.Forward.time
  && Packet.equal a.Forward.packet b.Forward.packet
  && a.Forward.packet.Packet.bits = b.Forward.packet.Packet.bits
  && same_float a.Forward.packet.Packet.sent_at b.Forward.packet.Packet.sent_at
  && List.equal Int.equal a.Forward.trail b.Forward.trail

(* An outcome as what pricing reads of it: weight and deliveries. *)
let results outcomes =
  List.map (fun (o : Forward.outcome) -> (o.Forward.logw, o.Forward.deliveries)) outcomes

let same_results =
  List.equal (fun (la, da) (lb, db) -> same_float la lb && List.equal same_delivery da db)

(* [resume]'s answer as the results [run] would give. *)
let resumed_results trace = function
  | Forward.Forked outcomes -> results outcomes
  | Forward.Single { logw; prefix; fresh; suffix } ->
    let base = Array.to_list (Forward.trace_deliveries trace) in
    [
      ( logw,
        List.filteri (fun i _ -> i < prefix) base @ fresh @ List.filteri (fun i _ -> i >= suffix) base
      );
    ]

(* Elements whose runs fork: a loss in front of a queue, per-packet
   jitter, and a memoryless gate (forks only with gate forking on). *)
let gen_forking_element =
  QCheck.Gen.(
    frequency
      [
        ( 1,
          map
            (fun rate ->
              Topology.series
                [
                  Topology.loss ~rate;
                  Topology.buffer ~capacity_bits:48_000;
                  Topology.throughput ~rate_bps:12_000.0;
                ])
            (oneofl [ 0.1; 0.4 ]) );
        (1, map (fun probability -> Topology.jitter ~seconds:0.3 ~probability) (oneofl [ 0.2; 0.5 ]));
        (1, map (fun m -> Topology.intermittent ~mean_time_to_switch:m ()) (oneofl [ 3.0; 20.0 ]));
      ])

(* Times on a 0.05 s grid, so sends tie with pinger emissions, delayed
   arrivals and each other. *)
let gen_grid ~count ~below =
  QCheck.Gen.(
    map
      (fun ts -> List.sort_uniq compare (List.map (fun t -> Float.round (t *. 20.0) /. 20.0) ts))
      (list_size count (float_bound_exclusive below)))

let gen_pricing_case =
  QCheck.Gen.(
    let* depth = int_range 1 3 in
    let* elements = list_size (return depth) (frequency [ (3, gen_element); (1, gen_forking_element) ]) in
    let* with_pinger = bool in
    let* pinger_rate = oneofl [ 0.3; 0.5 ] in
    let* warmup = gen_grid ~count:(int_range 0 4) ~below:4.0 in
    let* pending = gen_grid ~count:(int_range 0 3) ~below:2.0 in
    let* delays = gen_grid ~count:(int_range 1 5) ~below:6.0 in
    let* plan = bool in
    let sources =
      Topology.endpoint Flow.Primary
      ::
      (if with_pinger then [ Topology.pinger ~flow:Flow.Cross ~rate_pps:pinger_rate () ] else [])
    in
    let delays = 0.0 :: List.filter (fun d -> d > 0.0) delays in
    return ({ Topology.sources; shared = Topology.series elements }, warmup, pending, delays, plan))

let arbitrary_pricing_case =
  QCheck.make gen_pricing_case ~print:(fun (topology, warmup, pending, delays, plan) ->
      Format.asprintf "%a, warm-up sends %a, pending at now+%a, delays %a, %s" Topology.pp topology
        Fmt.(Dump.list float)
        warmup
        Fmt.(Dump.list float)
        pending
        Fmt.(Dump.list float)
        delays
        (if plan then "plan variant" else "filter model"))

let pricing_now = 4.0

(* A hypothesis state at [pricing_now]: the first outcome of a warm-up
   run of the filter model. *)
let pricing_state compiled filter warmup =
  let state = Mstate.initial ~epoch:Forward.default_config.Forward.epoch compiled in
  match Forward.run filter state ~sends:(primary_sends (List.mapi (fun i t -> (t, i)) warmup)) ~until:pricing_now with
  | o :: _ -> o.Forward.state
  | [] -> state

let trace_resume_prop =
  QCheck.Test.make ~name:"trace/resume equals a full run per candidate" ~count:150
    arbitrary_pricing_case
    (fun (topology, warmup, pending, delays, plan) ->
      QCheck.assume (Topology.validate topology = Ok ());
      let compiled = Compiled.compile_exn topology in
      let filter = Forward.prepare Forward.default_config compiled in
      let prepared = if plan then Forward.plan_variant filter else filter in
      let state = pricing_state compiled filter warmup in
      let pending =
        primary_sends (List.mapi (fun i t -> (pricing_now +. t, 100 + i)) pending)
      in
      let until = pricing_now +. 6.0 +. 10.0 in
      let send d =
        let at = pricing_now +. d in
        (at, Packet.make ~flow:Flow.Primary ~seq:200 ~sent_at:at ())
      in
      let full sends = Forward.run prepared state ~sends ~until in
      match Forward.trace prepared state ~sends:pending ~until with
      | None -> List.length (full pending) > 1
      | Some trace ->
        (match full pending with
        | [ o ] ->
          same_float o.Forward.logw (Forward.trace_logw trace)
          && List.equal same_delivery o.Forward.deliveries
               (Array.to_list (Forward.trace_deliveries trace))
        | _ -> false)
        && List.for_all
             (fun d ->
               same_results
                 (results (full (pending @ [ send d ])))
                 (resumed_results trace (Forward.resume trace (send d))))
             delays)

(* The planner's side, over a belief of [seeds] (params, prior weight,
   filter model, state at [pricing_now]) whose planning models share
   dynamics: [gross_utilities] prices the group off one trace from the
   first seed's state, and each seed's gross utilities equal
   [Utility.of_outcomes] over its own full runs, bit for bit; where the
   baseline forks, [decide] falls back to full runs. Either way [decide]
   returns the reference evaluations: each hypothesis' weighted
   differences of full-run utilities, added in the belief's order. *)
let pricing_matches_full_runs seeds ~pending ~delays =
  let now = pricing_now in
  let pending = primary_sends (List.mapi (fun i t -> (now +. t, 100 + i)) pending) in
  let config =
    {
      Planner.delays;
      horizon = 10.0;
      utility = Utility.make ~alpha:1.5 ~latency_penalty:0.01 ~cross_discounted:true ();
    }
  in
  let t_end = now +. List.fold_left Float.max 0.0 delays +. config.Planner.horizon in
  let make_packet at = Packet.make ~flow:Flow.Primary ~seq:200 ~sent_at:at () in
  let sends = Array.of_list (List.map (fun d -> (now +. d, make_packet (now +. d))) delays) in
  let reference plan state sends =
    Utility.of_outcomes config.Planner.utility plan ~now (Forward.run plan state ~sends ~until:t_end)
  in
  let plans = Array.of_list (List.map (fun (_, _, filter, _) -> Forward.plan_variant filter) seeds) in
  let states = Array.of_list (List.map (fun (_, _, _, state) -> state) seeds) in
  let gross_ok =
    match Planner.gross_utilities config ~now ~until:t_end plans states.(0) ~pending sends with
    | None -> List.length (Forward.run plans.(0) states.(0) ~sends:pending ~until:t_end) > 1
    | Some priced ->
      Array.length priced = Array.length plans
      && Array.for_all Fun.id
           (Array.mapi
              (fun j (baseline, utilities) ->
                let reference = reference plans.(j) states.(j) in
                same_float baseline (reference pending)
                && Array.for_all2 (fun send u -> same_float u (reference (pending @ [ send ]))) sends utilities)
              priced)
  in
  let belief = Belief.create seeds in
  let hyps = Belief.top belief ~n:Planner.top_hyps in
  let z = Utc_inference.Logw.logsumexp (List.map (fun (h : _ Belief.hypothesis) -> h.Belief.logw) hyps) in
  let expected =
    Array.to_list
      (Array.map
         (fun send ->
           List.fold_left
             (fun acc (h : _ Belief.hypothesis) ->
               let reference = reference (Forward.plan_variant h.Belief.prepared) h.Belief.state in
               acc +. (exp (h.Belief.logw -. z) *. (reference (pending @ [ send ]) -. reference pending)))
             0.0 hyps)
         sends)
  in
  let _, evaluations = Planner.decide config ~belief ~now ~pending ~make_packet in
  gross_ok
  && List.equal same_float expected
       (List.map (fun (e : Planner.evaluation) -> e.Planner.net_utility) evaluations)

let planner_gross_prop =
  QCheck.Test.make ~name:"shared-baseline gross utilities equal full runs bit for bit" ~count:120
    arbitrary_pricing_case
    (fun (topology, warmup, pending, delays, _) ->
      QCheck.assume (Topology.validate topology = Ok ());
      let compiled = Compiled.compile_exn topology in
      let filter = Forward.prepare Forward.default_config compiled in
      pricing_matches_full_runs [ ((), 1.0, filter, pricing_state compiled filter warmup) ] ~pending ~delays)

(* The tie the reserved sequence number exists for: a pending packet
   leaves a delay at exactly the candidate's send time, and both reach
   the station at that instant. In [run] the candidate was injected
   before the delayed arrival was created, so it is served first. *)
let reserved_seq_tie () =
  let topology =
    {
      Topology.sources = [ Topology.endpoint Flow.Primary ];
      shared =
        Topology.series
          [
            Topology.multipath ~first:(Topology.delay ~seconds:1.0) ~second:(Topology.series []) ();
            Topology.buffer ~capacity_bits:96_000;
            Topology.throughput ~rate_bps:12_000.0;
          ];
    }
  in
  let compiled = Compiled.compile_exn topology in
  let prepared = Forward.prepare Forward.default_config compiled in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let pending = primary_sends [ (0.0, 0) ] in
  let send = (1.0, Packet.make ~flow:Flow.Primary ~seq:1 ~sent_at:1.0 ()) in
  let reference = Forward.run prepared state ~sends:(pending @ [ send ]) ~until:10.0 in
  let trace =
    match Forward.trace prepared state ~sends:pending ~until:10.0 with
    | Some trace -> trace
    | None -> Alcotest.fail "a deterministic baseline must trace"
  in
  let resumed = resumed_results trace (Forward.resume trace send) in
  (match reference with
  | [ o ] ->
    Alcotest.(check (list (pair int (float 0.0))))
      "the candidate wins the tie"
      [ (1, 2.0); (0, 3.0) ]
      (List.map
         (fun (d : Forward.delivery) -> (d.Forward.packet.Packet.seq, d.Forward.time))
         o.Forward.deliveries)
  | _ -> Alcotest.fail "expected one outcome");
  Alcotest.(check bool) "resume breaks the tie as run does" true
    (same_results (results reference) resumed)

(* Epoch elision: a frozen gate consumes its epoch events, and its
   deliveries are those of a forking-gate run whose gate cannot flip. *)
let frozen_gate_elision () =
  let topology gate =
    {
      Topology.sources =
        [ Topology.endpoint Flow.Primary; Topology.pinger ~flow:Flow.Cross ~rate_pps:0.5 () ];
      shared =
        Topology.series
          [ gate; Topology.buffer ~capacity_bits:48_000; Topology.throughput ~rate_bps:12_000.0 ];
    }
  in
  let sends = primary_sends [ (0.5, 0); (1.0, 1); (2.0, 2); (7.5, 3) ] in
  let run ~fork_gates gate =
    let compiled = Compiled.compile_exn (topology gate) in
    let config = { Forward.default_config with Forward.fork_gates } in
    Forward.run (Forward.prepare config compiled) (Mstate.initial ~epoch:1.0 compiled) ~sends
      ~until:20.0
  in
  let epochs (o : Forward.outcome) =
    List.length
      (List.filter
         (fun (e : Mstate.event) ->
           match e.Mstate.ev with
           | Mstate.Gate_epoch _ -> true
           | Mstate.Arrive _ | Mstate.Complete _ | Mstate.Pinger_emit _ | Mstate.Gate_toggle _ ->
             false)
         o.Forward.state.Mstate.pending)
  in
  List.iter
    (fun initially_connected ->
      let frozen = run ~fork_gates:false (Topology.intermittent ~initially_connected ~mean_time_to_switch:5.0 ()) in
      let cannot_flip =
        run ~fork_gates:true
          (Topology.intermittent ~initially_connected ~mean_time_to_switch:Float.infinity ())
      in
      match frozen, cannot_flip with
      | [ f ], [ r ] ->
        Alcotest.(check bool) "same deliveries and weight" true (same_results (results [ f ]) (results [ r ]));
        Alcotest.(check int) "the reference keeps its epoch" 1 (epochs r);
        Alcotest.(check int) "the frozen gate consumed its epochs" 0 (epochs f)
      | _ -> Alcotest.fail "expected one outcome each")
    [ true; false ]

let shared_pricing_suite =
  [
    ("reserved seq tie", `Quick, reserved_seq_tie);
    ("frozen gate epoch elision", `Quick, frozen_gate_elision);
    QCheck_alcotest.to_alcotest trace_resume_prop;
    QCheck_alcotest.to_alcotest planner_gross_prop;
  ]

let suite = suite @ shared_pricing_suite

(* --- forking runs, pinned by digest --- *)

(* What a run, a trace and a resume return, as bytes: each outcome's
   log-weight bits, its state's [Mstate.hash], [origin] and [next_seq],
   and each delivery's time bits, flow, sequence number and trail.
   [Mstate.canonical] is left out, because its bytes also record which
   float boxes a state shares. *)
let add_int buf i = Buffer.add_int64_le buf (Int64.of_int i)
let add_bits buf x = Buffer.add_int64_le buf (Int64.bits_of_float x)

let add_deliveries buf deliveries =
  add_int buf (List.length deliveries);
  List.iter
    (fun (d : Forward.delivery) ->
      add_bits buf d.Forward.time;
      add_int buf (Flow.hash d.Forward.packet.Packet.flow);
      add_int buf d.Forward.packet.Packet.seq;
      add_int buf (List.length d.Forward.trail);
      List.iter (add_int buf) d.Forward.trail)
    deliveries

let add_outcomes buf outcomes =
  add_int buf (List.length outcomes);
  List.iter
    (fun (o : Forward.outcome) ->
      add_bits buf o.Forward.logw;
      add_int buf (Mstate.hash o.Forward.state);
      add_bits buf o.Forward.state.Mstate.origin;
      add_int buf o.Forward.state.Mstate.next_seq;
      add_deliveries buf o.Forward.deliveries)
    outcomes

(* [run] of the baseline and of each candidate, then [trace] of the
   baseline and [resume] of each candidate, from [state] under
   [prepared]. *)
let add_pricing buf prepared state ~pending ~sends ~until =
  add_outcomes buf (Forward.run prepared state ~sends:pending ~until);
  List.iter (fun send -> add_outcomes buf (Forward.run prepared state ~sends:(pending @ [ send ]) ~until)) sends;
  match Forward.trace prepared state ~sends:pending ~until with
  | None -> add_int buf 0
  | Some trace ->
    add_int buf 1;
    add_bits buf (Forward.trace_logw trace);
    add_deliveries buf (Array.to_list (Forward.trace_deliveries trace));
    List.iter
      (fun send ->
        match Forward.resume trace send with
        | Forward.Single { logw; prefix; fresh; suffix } ->
          add_int buf 2;
          add_bits buf logw;
          add_int buf prefix;
          add_deliveries buf fresh;
          add_int buf suffix
        | Forward.Forked outcomes ->
          add_int buf 3;
          add_outcomes buf outcomes)
      sends

(* One [gen_pricing_case], as [trace_resume_prop] runs it. *)
let add_pricing_case buf (topology, warmup, pending, delays, plan) =
  let compiled = Compiled.compile_exn topology in
  let filter = Forward.prepare Forward.default_config compiled in
  let prepared = if plan then Forward.plan_variant filter else filter in
  let state = pricing_state compiled filter warmup in
  let pending = primary_sends (List.mapi (fun i t -> (pricing_now +. t, 100 + i)) pending) in
  let sends =
    List.map
      (fun d ->
        let at = pricing_now +. d in
        (at, Packet.make ~flow:Flow.Primary ~seq:200 ~sent_at:at ()))
      delays
  in
  add_pricing buf prepared state ~pending ~sends ~until:(pricing_now +. 16.0)

(* Elements no generator draws: a memoryless [Either] and a random
   [Multipath], each in front of a queue and with a pinger, under the
   filter's model (forking) and its plan variant. *)
let add_hand_built buf shared =
  let topology =
    {
      Topology.sources =
        [ Topology.endpoint Flow.Primary; Topology.pinger ~flow:Flow.Cross ~rate_pps:0.5 () ];
      shared =
        Topology.series [ shared; Topology.buffer ~capacity_bits:48_000; Topology.throughput ~rate_bps:12_000.0 ];
    }
  in
  let compiled = Compiled.compile_exn topology in
  let filter = Forward.prepare Forward.default_config compiled in
  let state = Mstate.initial ~epoch:1.0 compiled in
  let pending = primary_sends [ (0.5, 0); (1.0, 1); (2.5, 2) ] in
  let sends =
    List.map (fun at -> (at, Packet.make ~flow:Flow.Primary ~seq:3 ~sent_at:at ())) [ 0.0; 1.0; 3.0; 6.0 ]
  in
  List.iter
    (fun prepared -> add_pricing buf prepared state ~pending ~sends ~until:12.0)
    [ filter; Forward.plan_variant filter ]

(* The digest of 50 seeded pricing cases (the invalid ones skipped) and
   the two hand-built ones, as the interpreter that pinned it computed
   them. The cases come from QCheck's generators, so a QCheck release
   that draws differently from the same seed changes the digest. *)
let forking_runs_pinned () =
  let buf = Buffer.create 65536 in
  List.iter
    (fun ((topology, _, _, _, _) as case) ->
      if Topology.validate topology = Ok () then add_pricing_case buf case)
    (QCheck.Gen.generate ~rand:(Random.State.make [| 27 |]) ~n:50 gen_pricing_case);
  add_hand_built buf
    (Topology.Either
       {
         first = Topology.delay ~seconds:0.5;
         second = Topology.series [];
         mean_time_to_switch = 4.0;
         initially_first = true;
       });
  add_hand_built buf
    (Topology.multipath ~policy:(`Random 0.3) ~first:(Topology.delay ~seconds:0.5)
       ~second:(Topology.series []) ());
  Alcotest.(check string) "digest" "a78b63bd0980478d583e26850b813e3c" (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite = suite @ [ ("forking runs pinned by digest", `Quick, forking_runs_pinned) ]

(* --- compaction identity --- *)

(* On the outcomes of several runs from one warm state, [Mstate.equal]
   holds exactly when the canonical strings agree, and equal states hash
   equal. Every pair is compared, so each run contributes its first 48
   outcomes. *)
let state_identity_prop =
  QCheck.Test.make ~name:"Mstate.equal agrees with canonical and hash on run outcomes" ~count:150
    arbitrary_pricing_case
    (fun (topology, warmup, pending, delays, plan) ->
      QCheck.assume (Topology.validate topology = Ok ());
      let compiled = Compiled.compile_exn topology in
      let filter = Forward.prepare Forward.default_config compiled in
      let prepared = if plan then Forward.plan_variant filter else filter in
      let state = pricing_state compiled filter warmup in
      let pending =
        primary_sends (List.mapi (fun i t -> (pricing_now +. t, 100 + i)) pending)
      in
      let candidate d =
        let at = pricing_now +. d in
        [ (at, Packet.make ~flow:Flow.Primary ~seq:200 ~sent_at:at ()) ]
      in
      let states =
        List.concat_map
          (fun sends ->
            List.map
              (fun (o : Forward.outcome) -> (o.Forward.state, Mstate.canonical o.Forward.state))
              (List.filteri
                 (fun i _ -> i < 48)
                 (Forward.run prepared state ~sends ~until:(pricing_now +. 8.0))))
          (pending :: List.map (fun d -> pending @ candidate d) delays)
      in
      List.for_all
        (fun (a, ca) ->
          List.for_all
            (fun (b, cb) ->
              let equal = Mstate.equal a b in
              Bool.equal equal (String.equal ca cb)
              && ((not equal) || Mstate.hash a = Mstate.hash b))
            states)
        states)

type compaction_params = { id : int; offset : float }

let gen_compaction_case =
  QCheck.Gen.(
    let gen_topology =
      let* depth = int_range 1 3 in
      let* elements =
        list_size (return depth) (frequency [ (1, gen_element); (1, gen_forking_element) ])
      in
      let* with_pinger = bool in
      let sources =
        Topology.endpoint Flow.Primary
        :: (if with_pinger then [ Topology.pinger ~flow:Flow.Cross ~rate_pps:0.5 () ] else [])
      in
      return { Topology.sources; shared = Topology.series elements }
    in
    let* topologies = list_size (int_range 1 3) gen_topology in
    let* offsets = list_size (return (List.length topologies)) (oneofl [ 0.1; 0.5; 1.2 ]) in
    let* sends = gen_grid ~count:(int_range 1 5) ~below:4.0 in
    return (List.combine topologies offsets, sends))

let print_compaction_case (seeds, sends) =
  Format.asprintf "seeds %a, sends %a"
    Fmt.(Dump.list (Dump.pair Topology.pp float))
    seeds
    Fmt.(Dump.list float)
    sends

let compaction_seed id (topology, offset) =
  let compiled = Compiled.compile_exn topology in
  ( { id; offset },
    1.0,
    Forward.prepare Forward.default_config compiled,
    Mstate.initial ~epoch:Forward.default_config.Forward.epoch compiled )

(* [Belief.advance] over [seeds], under [min_weight] and a [`Top_k] cap
   of [max_hyps], against a reference built from lists. The outcomes of
   a [Forward.run] of each hypothesis under its own model, in hypothesis
   order, fold into one entry per distinct byte key [(Marshal params,
   canonical state, Marshal awaiting)] with [Logw.logsumexp2]; the
   entries are pruned, normalized, capped to the heaviest, normalized
   again and sorted heaviest first, ties in first-seen order. The belief
   must keep these keys in this order, with these log-weight bits, and
   each hypothesis' [hash] must be its state's. *)
let compaction_matches_reference ?(min_weight = 0.0) ?(max_hyps = max_int) seeds sends =
  let now = 5.0 in
  let tick = 1e-6 in
  let sends = primary_sends (List.mapi (fun i t -> (t, i)) sends) in
  let key params state awaiting =
    Marshal.to_string params [] ^ Mstate.canonical state ^ Marshal.to_string awaiting []
  in
  let belief = Belief.create ~min_weight ~max_hyps ~obs_offset:(fun p -> p.offset) seeds in
  let table = Hashtbl.create 64 and first_seen = ref [] in
  let absorb k logw =
    match Hashtbl.find_opt table k with
    | Some acc -> acc := Utc_inference.Logw.logsumexp2 !acc logw
    | None ->
      let acc = ref logw in
      Hashtbl.add table k acc;
      first_seen := (k, acc) :: !first_seen
  in
  List.iter
    (fun (h : _ Belief.hypothesis) ->
      List.iter
        (fun (o : Forward.outcome) ->
          let logw = h.Belief.logw +. o.Forward.logw +. 0.0 in
          if logw <> neg_infinity then begin
            let awaiting =
              List.filter
                (fun (d : Forward.delivery) -> d.Forward.time +. h.Belief.params.offset > now +. tick)
                (h.Belief.awaiting
                @ List.filter
                    (fun (d : Forward.delivery) -> Flow.equal d.Forward.packet.Packet.flow Flow.Primary)
                    o.Forward.deliveries)
            in
            absorb (key h.Belief.params o.Forward.state awaiting) logw
          end)
        (Forward.run h.Belief.prepared h.Belief.state ~sends ~until:now))
    (Belief.support belief);
  let normalize entries =
    let z = Utc_inference.Logw.logsumexp (List.map snd entries) in
    if z = neg_infinity then [] else List.map (fun (k, lw) -> (k, lw -. z)) entries
  in
  let heaviest_first = List.stable_sort (fun (_, a) (_, b) -> Float.compare b a) in
  let entries = List.rev_map (fun (k, acc) -> (k, !acc)) !first_seen in
  let heaviest = List.fold_left (fun m (_, lw) -> Float.max m lw) neg_infinity entries in
  let pruned = List.filter (fun (_, lw) -> lw >= heaviest +. log min_weight) entries in
  let normalized = normalize pruned in
  let capped =
    if List.length normalized <= max_hyps then normalized
    else List.filteri (fun i _ -> i < max_hyps) (heaviest_first normalized)
  in
  let expected = heaviest_first (normalize capped) in
  let kept = Belief.support (Belief.advance belief ~sends ~now ()) in
  let bits (k, lw) = (k, Int64.bits_of_float lw) in
  let hashed (h : _ Belief.hypothesis) = h.Belief.hash = Mstate.hash h.Belief.state in
  List.map
    (fun (h : _ Belief.hypothesis) -> bits (key h.Belief.params h.Belief.state h.Belief.awaiting, h.Belief.logw))
    kept
  = List.map bits expected
  && List.for_all hashed (Belief.support belief)
  && List.for_all hashed kept

(* Seed 0 appears twice, under params equal by value but physically
   distinct, so its forks merge only by value. *)
let belief_compaction_prop =
  QCheck.Test.make
    ~name:"belief compaction keeps one hypothesis per byte key, pruned, capped and sorted bit for bit"
    ~count:100
    (QCheck.make
       QCheck.Gen.(triple gen_compaction_case (oneofl [ 0.0; 1e-3; 0.2 ]) (oneofl [ 1; 3; max_int ]))
       ~print:(fun (case, min_weight, max_hyps) ->
         Printf.sprintf "%s, min_weight %g, max_hyps %d" (print_compaction_case case) min_weight
           max_hyps))
    (fun ((seeds, sends), min_weight, max_hyps) ->
      QCheck.assume (List.for_all (fun (t, _) -> Topology.validate t = Ok ()) seeds);
      let seeds = List.mapi compaction_seed seeds in
      let p0, w0, prepared0, state0 = List.hd seeds in
      let twin = { p0 with id = p0.id } in
      assert (twin != p0);
      compaction_matches_reference ~min_weight ~max_hyps (seeds @ [ (twin, w0, prepared0, state0) ]) sends)

let compaction_suite =
  [
    QCheck_alcotest.to_alcotest state_identity_prop;
    QCheck_alcotest.to_alcotest belief_compaction_prop;
  ]

let suite = suite @ compaction_suite

(* --- shared dynamics: models that differ only in last-mile loss rates --- *)

let loss_rates = [ 0.0; 0.05; 0.1; 0.2; 0.5; 1.0 ]

(* Two different loss rates. *)
let gen_rate_pair =
  QCheck.Gen.(
    let* r1 = oneofl loss_rates in
    let* r2 = oneofl (List.filter (fun r -> not (Float.equal r r1)) loss_rates) in
    return (r1, r2))

(* What follows the shared station, as a function of its loss rates:
   every loss is last mile. Each case gives how many rates it takes and
   how many losses every packet crosses: a loss; a loss then a delay; a
   loss then jitter; two losses in series; a multipath with a loss on
   each path. *)
let gen_lossy_tail =
  QCheck.Gen.oneofl
    [
      (1, 1, fun r -> Topology.loss ~rate:r.(0));
      (1, 1, fun r -> Topology.series [ Topology.loss ~rate:r.(0); Topology.delay ~seconds:0.3 ]);
      ( 1,
        1,
        fun r ->
          Topology.series [ Topology.loss ~rate:r.(0); Topology.jitter ~seconds:0.2 ~probability:0.3 ] );
      (2, 2, fun r -> Topology.series [ Topology.loss ~rate:r.(0); Topology.loss ~rate:r.(1) ]);
      ( 2,
        1,
        fun r ->
          Topology.multipath ~first:(Topology.loss ~rate:r.(0))
            ~second:(Topology.series [ Topology.delay ~seconds:0.4; Topology.loss ~rate:r.(1) ])
            () );
    ]

(* A topology as a function of its tail's loss rates, two rate vectors,
   and send times. *)
let gen_shared_case =
  QCheck.Gen.(
    let* prefix = list_size (int_range 0 2) gen_element in
    let* rate_bps = oneofl [ 6_000.0; 12_000.0 ] in
    let* losses, crossed, tail = gen_lossy_tail in
    let* r1 = array_repeat losses (oneofl loss_rates) in
    let* r2 = array_repeat losses (oneofl loss_rates) in
    let* with_pinger = bool in
    let* times = gen_grid ~count:(int_range 1 4) ~below:6.0 in
    let sources =
      Topology.endpoint Flow.Primary
      :: (if with_pinger then [ Topology.pinger ~flow:Flow.Cross ~rate_pps:0.5 () ] else [])
    in
    let topology ~front rates =
      {
        Topology.sources;
        shared =
          Topology.series
            (prefix
            @ front
            @ [ Topology.buffer ~capacity_bits:48_000; Topology.throughput ~rate_bps; tail rates ]);
      }
    in
    return (topology, crossed, r1, r2, times))

let arbitrary_shared_case =
  QCheck.make gen_shared_case ~print:(fun (topology, _, r1, r2, times) ->
      Format.asprintf "%a@ and %a, sends at %a" Topology.pp (topology ~front:[] r1) Topology.pp
        (topology ~front:[] r2)
        Fmt.(Dump.list float)
        times)

let shared_model ?(config = Forward.default_config) topology =
  let compiled = Compiled.compile_exn topology in
  (Forward.prepare config compiled, Mstate.initial ~epoch:config.Forward.epoch compiled)

(* How a belief over [models], one weight each, shares runs:
   [Belief.shared_runs] over its hypotheses, which equal weights keep in
   seed order. *)
let belief_runs models =
  let hyps =
    Array.of_list
      (Belief.support
         (Belief.create (List.mapi (fun i (prepared, state) -> (i, 1.0, prepared, state)) models)))
  in
  Belief.shared_runs
    ~labels:(Array.map (fun (h : _ Belief.hypothesis) -> h.Belief.label) hyps)
    ~hashes:(Array.map (fun (h : _ Belief.hypothesis) -> h.Belief.hash) hyps)
    (Array.map (fun (h : _ Belief.hypothesis) -> h.Belief.state) hyps)

(* The survival a delivery had before runs were shared: 1 times
   [1 - rate] of each loss it crossed, in crossing order. *)
let running_product model (d : Forward.delivery) =
  List.fold_left
    (fun acc id ->
      match Compiled.node (Forward.compiled_of model) id with
      | Compiled.Loss { rate; _ } -> acc *. (1.0 -. rate)
      | _ -> Float.nan)
    1.0 (List.rev d.Forward.trail)

let shared_dynamics_prop =
  QCheck.Test.make ~name:"loss-rate variants share dynamics and runs" ~count:150
    arbitrary_shared_case
    (fun (topology, crossed, r1, r2, times) ->
      let t1 = topology ~front:[] r1 and t2 = topology ~front:[] r2 in
      QCheck.assume (Topology.validate t1 = Ok () && Topology.validate t2 = Ok ());
      let p1, s1 = shared_model t1 and p2, s2 = shared_model t2 in
      let sends = primary_sends (List.mapi (fun i t -> (t, i)) times) in
      let o1 = Forward.run p1 s1 ~sends ~until:10.0 and o2 = Forward.run p2 s2 ~sends ~until:10.0 in
      let same_outcome (a : Forward.outcome) (b : Forward.outcome) =
        Mstate.equal a.Forward.state b.Forward.state
        && same_float a.Forward.logw b.Forward.logw
        && List.equal same_delivery a.Forward.deliveries b.Forward.deliveries
      in
      let survival_ok (d : Forward.delivery) =
        List.length d.Forward.trail = crossed
        && same_float (Forward.survive_p p1 d) (running_product p1 d)
        && same_float (Forward.survive_p p2 d) (running_product p2 d)
      in
      Forward.shares_dynamics p1 p2
      && Forward.shares_dynamics p2 p1
      && belief_runs [ (p1, s1); (p2, s2) ] = [| 0; 0 |]
      && Mstate.equal s1 s2
      && List.length o1 = List.length o2
      && List.for_all2 same_outcome o1 o2
      && List.for_all (fun (o : Forward.outcome) -> List.for_all survival_ok o.Forward.deliveries) o1)

(* Rates that change what happens are part of the dynamics: a loss in
   front of the station forks, and so does every loss in fork mode. *)
let unshared_dynamics_prop =
  QCheck.Test.make ~name:"rates that fork are part of the dynamics" ~count:100
    arbitrary_shared_case
    (fun (topology, _, r1, r2, _) ->
      let t1 = topology ~front:[] r1 and t2 = topology ~front:[] r2 in
      QCheck.assume (Topology.validate t1 = Ok () && Topology.validate t2 = Ok ());
      let fork = { Forward.default_config with loss_mode = `Fork } in
      let f1, _ = shared_model ~config:fork t1 and f2, _ = shared_model ~config:fork t2 in
      let front rate = topology ~front:[ Topology.loss ~rate ] r1 in
      let q1, s1 = shared_model (front 0.1) and q2, s2 = shared_model (front 0.3) in
      let q3, _ = shared_model (front 0.1) in
      Bool.equal (Forward.shares_dynamics f1 f2) (Array.for_all2 same_float r1 r2)
      && (not (Forward.shares_dynamics q1 q2))
      && belief_runs [ (q1, s1); (q2, s2) ] = [| 0; 1 |]
      && Forward.shares_dynamics q1 q3)

(* The compaction property with loss-rate twins: every seed ends in a
   last-mile loss, and seed 0 gains a twin compiled and prepared apart
   whose loss rate differs, so the belief shares their runs. *)
let gen_twin_case =
  QCheck.Gen.(
    let* seeds, sends = gen_compaction_case in
    let* rate0, twin_rate = gen_rate_pair in
    let* rates = list_size (return (List.length seeds - 1)) (oneofl loss_rates) in
    return (seeds, rate0 :: rates, twin_rate, sends))

let arbitrary_twin_case =
  QCheck.make gen_twin_case ~print:(fun (seeds, rates, twin_rate, sends) ->
      Format.asprintf "seeds %a, last-mile rates %a, twin rate %g, sends %a"
        Fmt.(Dump.list (Dump.pair Topology.pp float))
        seeds
        Fmt.(Dump.list float)
        rates twin_rate
        Fmt.(Dump.list float)
        sends)

let with_last_mile rate (topology : Topology.t) =
  { topology with Topology.shared = Topology.series [ topology.Topology.shared; Topology.loss ~rate ] }

(* Every seed ends in a last-mile loss at its own rate, and seed 0's
   topology comes once more with [twin_rate], compiled and prepared
   apart under its own params. *)
let twin_seeds (seeds, rates, twin_rate, _) =
  let lossy = List.map2 (fun (t, offset) rate -> (with_last_mile rate t, offset)) seeds rates in
  let twin =
    match seeds with
    | (t, offset) :: _ -> (with_last_mile twin_rate t, offset)
    | [] -> assert false
  in
  List.mapi compaction_seed (lossy @ [ twin ])

let valid_twin_case (seeds, _, _, _) = List.for_all (fun (t, _) -> Topology.validate t = Ok ()) seeds

let belief_twin_prop =
  QCheck.Test.make ~name:"belief compaction with loss-rate twins keeps one hypothesis per byte key"
    ~count:100 arbitrary_twin_case
    (fun ((_, _, _, sends) as case) ->
      QCheck.assume (valid_twin_case case);
      compaction_matches_reference (twin_seeds case) sends)

(* The ACKs by [now] that seed 0's first outcome predicts, shifted by
   its offset. *)
let seed0_acks seeds ~sends ~now =
  match seeds with
  | (params, _, prepared, state) :: _ -> (
    match Forward.run prepared state ~sends ~until:now with
    | o :: _ ->
      List.filter_map
        (fun (d : Forward.delivery) ->
          let time = d.Forward.time +. params.offset in
          if Flow.equal d.Forward.packet.Packet.flow Flow.Primary && time <= now then
            Some { Belief.seq = d.Forward.packet.Packet.seq; time }
          else None)
        o.Forward.deliveries
    | [] -> [])
  | [] -> []

(* ROADMAP's normalized-posterior invariant on beliefs that share runs:
   after an update on the ACKs seed 0's first outcome predicts, every
   log-weight is finite and the posterior mass is 1. *)
let posterior_normalized_prop =
  QCheck.Test.make ~name:"updates on shared runs keep the posterior normalized" ~count:100
    arbitrary_twin_case
    (fun ((_, _, _, sends) as case) ->
      QCheck.assume (valid_twin_case case);
      let seeds = twin_seeds case in
      let now = 5.0 in
      let sends = primary_sends (List.mapi (fun i t -> (t, i)) sends) in
      let acks = seed0_acks seeds ~sends ~now in
      let belief = Belief.create ~obs_offset:(fun p -> p.offset) seeds in
      let updated, _ = Belief.update belief ~sends ~acks ~now () in
      let hyps = Belief.support updated in
      let mass = List.fold_left (fun acc (h : _ Belief.hypothesis) -> acc +. exp h.Belief.logw) 0.0 hyps in
      hyps <> []
      && List.for_all (fun (h : _ Belief.hypothesis) -> Float.is_finite h.Belief.logw) hyps
      && Float.abs (mass -. 1.0) <= 1e-9)

(* Two hypotheses share a dynamics label exactly when their models
   share dynamics: after [create], after an update on the ACKs seed 0's
   first outcome predicts and an advance, and after a reseed that keeps
   half the mass and adds the case's seeds again in reverse order,
   compiled and prepared anew, so that fresh hypotheses share dynamics
   with kept ones without sharing their order. *)
let labels_are_classes belief =
  let hyps = Belief.support belief in
  List.for_all
    (fun (a : _ Belief.hypothesis) ->
      List.for_all
        (fun (b : _ Belief.hypothesis) ->
          Bool.equal (a.Belief.label = b.Belief.label)
            (Forward.shares_dynamics a.Belief.prepared b.Belief.prepared))
        hyps)
    hyps

let dynamics_labels_prop =
  QCheck.Test.make ~name:"dynamics labels are exactly the shares_dynamics classes" ~count:100
    arbitrary_twin_case
    (fun ((_, _, _, sends) as case) ->
      QCheck.assume (valid_twin_case case);
      let seeds = twin_seeds case in
      let now = 5.0 and later = 7.0 in
      let sends = primary_sends (List.mapi (fun i t -> (t, i)) sends) in
      let belief = Belief.create ~obs_offset:(fun p -> p.offset) seeds in
      let updated, _ = Belief.update belief ~sends ~acks:(seed0_acks seeds ~sends ~now) ~now () in
      let advanced = Belief.advance updated ~sends:[] ~now:later () in
      let reseeded = Belief.reseed advanced ~seeds:(List.rev (twin_seeds case)) ~keep:0.5 ~now:later () in
      let kept_models = List.map (fun (_, _, prepared, _) -> prepared) seeds in
      let kept (h : _ Belief.hypothesis) = List.memq h.Belief.prepared kept_models in
      let hyps = Belief.support reseeded in
      List.for_all labels_are_classes [ belief; updated; advanced; reseeded ]
      && List.exists
           (fun (a : _ Belief.hypothesis) ->
             kept a
             && List.exists
                  (fun (b : _ Belief.hypothesis) -> (not (kept b)) && a.Belief.label = b.Belief.label)
                  hyps)
           hyps)

(* [planner_gross_prop] with a loss-rate twin: the case's topology ends
   in a last-mile loss, and a second model of it, compiled and prepared
   apart, has another rate and three times the prior weight, so
   [decide] prices the two off one trace. *)
let planner_twin_prop =
  QCheck.Test.make ~name:"shared pricing of loss-rate twins equals full runs bit for bit" ~count:120
    QCheck.(
      pair arbitrary_pricing_case
        (make gen_rate_pair ~print:(fun (r1, r2) -> Printf.sprintf "last-mile rates %g and %g" r1 r2)))
    (fun ((topology, warmup, pending, delays, _), (r1, r2)) ->
      QCheck.assume (Topology.validate topology = Ok ());
      let seed rate weight =
        let compiled = Compiled.compile_exn (with_last_mile rate topology) in
        let filter = Forward.prepare Forward.default_config compiled in
        (rate, weight, filter, pricing_state compiled filter warmup)
      in
      pricing_matches_full_runs [ seed r1 1.0; seed r2 3.0 ] ~pending ~delays)

(* DESIGN.md's decision 4: at a last-mile loss, weighting each packet by
   its survival likelihood and forking on it are one filter. A belief
   over a shared case's two rate vectors, the first the truth, advances
   on the case's sends and on the ACKs a [Runtime] run of the truth
   produced, once per loss mode, with no [min_weight] pruning. Where no
   cap fires (no [max_branches] drop counted in
   [model.forward.branches_dropped], and the belief smaller than
   [max_hyps]) the two posteriors hold the same cells with masses equal
   to 1e-9, relative. [now] is off the 0.05 s grid every event time is
   on, so no ACK is due at the boundary. *)
let loss_mode_posteriors_prop =
  let module Metrics = Utc_obs.Metrics in
  let dropped = Metrics.counter "model.forward.branches_dropped" in
  let max_hyps = 20_000 in
  QCheck.Test.make ~name:"fork and likelihood loss give one posterior where no cap fires"
    ~count:150
    QCheck.(pair arbitrary_shared_case (int_range 1 1000))
    (fun ((topology, _, r1, r2, times), seed) ->
      let truth = topology ~front:[] r1 and other = topology ~front:[] r2 in
      QCheck.assume (Topology.validate truth = Ok () && Topology.validate other = Ok ());
      let now = 9.97 in
      let sends = primary_sends (List.mapi (fun i t -> (t, i)) times) in
      let acks =
        List.filter_map
          (fun (time, flow, seq) ->
            if Flow.equal flow Flow.Primary then Some { Belief.seq; time } else None)
          (ground_truth ~seed ~topology:truth ~sends ~until:now ())
      in
      let posterior loss_mode =
        let config = { Forward.default_config with loss_mode } in
        let seeds =
          List.mapi
            (fun cell t ->
              let prepared, state = shared_model ~config t in
              (cell, 1.0, prepared, state))
            [ truth; other ]
        in
        Metrics.enable ();
        Metrics.reset ();
        Fun.protect
          ~finally:(fun () ->
            Metrics.disable ();
            Metrics.reset ())
          (fun () ->
            let belief, _ =
              Belief.update (Belief.create ~min_weight:0.0 ~max_hyps seeds) ~sends ~acks ~now ()
            in
            let capped = Metrics.count dropped > 0 || Belief.size belief >= max_hyps in
            (List.sort (fun (a, _) (b, _) -> Int.compare a b) (Belief.posterior belief), capped))
      in
      let weighted, weighted_capped = posterior `Likelihood in
      let forked, forked_capped = posterior `Fork in
      QCheck.assume (not (weighted_capped || forked_capped));
      let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b) in
      List.exists (fun (cell, _) -> cell = 0) weighted
      && List.equal (fun (a, wa) (b, wb) -> a = b && close wa wb) weighted forked)

let shared_dynamics_suite =
  [
    QCheck_alcotest.to_alcotest shared_dynamics_prop;
    QCheck_alcotest.to_alcotest unshared_dynamics_prop;
    QCheck_alcotest.to_alcotest belief_twin_prop;
    QCheck_alcotest.to_alcotest posterior_normalized_prop;
    QCheck_alcotest.to_alcotest dynamics_labels_prop;
    QCheck_alcotest.to_alcotest planner_twin_prop;
    QCheck_alcotest.to_alcotest loss_mode_posteriors_prop;
  ]

let suite = suite @ shared_dynamics_suite
