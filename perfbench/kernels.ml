(* The seven layer kernels: wall ns per call, an OLS estimate by
   Bechamel over many batched calls on the monotonic clock, and minor
   words per call, counted with [Gc.minor_words]. (Bechamel's
   minor_allocated reads [Gc.quick_stat], which OCaml 5.1 advances only
   at minor collections, so it reads 0 for a kernel that allocates less
   than a minor heap per batch.) *)

open Utc_net
module E = Utc_experiments

let fig2_compiled =
  lazy
    (Compiled.compile_exn
       (Topology.figure2 ~link_bps:12_000.0 ~buffer_bits:96_000 ~loss_rate:0.2 ~pinger_pps:0.7
          ~cross_gate:(Topology.squarewave ~interval:100.0 ())))

let rng () =
  let rng = Utc_sim.Rng.create ~seed:1 in
  fun () -> ignore (Utc_sim.Rng.bits64 rng)

let pheap_100 () () =
  let heap = Utc_sim.Pheap.create () in
  for i = 0 to 99 do
    Utc_sim.Pheap.add heap ~time:(float_of_int (i * 7919 mod 100)) i
  done;
  while Option.is_some (Utc_sim.Pheap.pop heap) do
    ()
  done

let mstate_canonical () =
  let state = Utc_model.Mstate.initial ~epoch:1.0 (Lazy.force fig2_compiled) in
  fun () -> ignore (Utc_model.Mstate.canonical state)

let forward_window () =
  let compiled = Lazy.force fig2_compiled in
  let prepared = Utc_model.Forward.prepare Utc_model.Forward.default_config compiled in
  let state = Utc_model.Mstate.initial ~epoch:1.0 compiled in
  let sends =
    List.map
      (fun i ->
        let at = float_of_int i in
        (at, Packet.make ~flow:Flow.Primary ~seq:i ~sent_at:at ()))
      [ 1; 3; 5; 7 ]
  in
  fun () -> ignore (Utc_model.Forward.run prepared state ~sends ~until:10.0)

(* Every 37th cell of the paper prior: 129 hypotheses. *)
let small_belief () =
  let prior = List.filteri (fun i _ -> i mod 37 = 0) (Utc_inference.Priors.paper_prior ()) in
  Utc_inference.Belief.create
    (Utc_inference.Priors.seeds ~config:Utc_model.Forward.default_config prior)

let belief_update () =
  let belief = small_belief () in
  let sends = [ (0.5, Packet.make ~flow:Flow.Primary ~seq:0 ~sent_at:0.5 ()) ] in
  fun () ->
    ignore
      (Utc_inference.Belief.update belief ~sends
         ~acks:[ { Utc_inference.Belief.seq = 0; time = 1.5 } ]
         ~now:2.0 ())

let planner_decide () =
  let belief = Utc_inference.Belief.advance (small_belief ()) ~sends:[] ~now:0.5 () in
  let make_packet at = Packet.make ~flow:Flow.Primary ~seq:0 ~sent_at:at () in
  fun () ->
    ignore
      (Utc_core.Planner.decide
         { Utc_core.Planner.default_config with delays = E.Harness.paper_delays }
         ~belief ~now:0.5 ~pending:[] ~make_packet)

let ground_truth_100s () () =
  let engine = Utc_sim.Engine.create ~seed:1 () in
  ignore
    (Utc_elements.Runtime.build engine (Lazy.force fig2_compiled)
       (Utc_elements.Runtime.callbacks ()));
  Utc_sim.Engine.run ~until:100.0 engine

(* Metric-name stem and the kernel. *)
let all =
  [
    ("rng", rng);
    ("pheap_100", pheap_100);
    ("mstate_canonical", mstate_canonical);
    ("forward_window", forward_window);
    ("belief_update", belief_update);
    ("planner_decide", planner_decide);
    ("ground_truth_100s", ground_truth_100s);
  ]

(* Minor words of one call, averaged over calls made for about 20 ms
   after one warm-up call. *)
let words_per_call f =
  f ();
  let t0 = Spans.now_ns () and w0 = Gc.minor_words () in
  let rec go n =
    if n > 0 && Spans.now_ns () - t0 > 20_000_000 then n
    else begin
      f ();
      go (n + 1)
    end
  in
  let n = go 0 in
  (Gc.minor_words () -. w0) /. float_of_int n

(* [(stem, ns per call, minor words per call)] in [all]'s order. *)
let measure ~quota_s =
  let open Bechamel in
  let clock = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second quota_s) ~kde:None () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.map
    (fun (name, f) ->
      let elt = List.hd (Test.elements (Test.make ~name (Staged.stage (f ())))) in
      let ns =
        let raw = Benchmark.run cfg [ clock ] elt in
        match Analyze.OLS.estimates (Analyze.one ols clock raw) with
        | Some [ x ] -> x
        | Some _ | None -> nan
      in
      (name, ns, words_per_call (f ())))
    all
