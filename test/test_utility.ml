(* Tests for the discount and utility functions (§3.3). *)
module Discount = Utc_utility.Discount
module Utility = Utc_utility.Utility
module Forward = Utc_model.Forward
open Utc_net

let gamma_basics () =
  Alcotest.(check (float 1e-12)) "gamma(0)=1" 1.0 (Discount.gamma ~kappa:60.0 0.0);
  Alcotest.(check (float 1e-12)) "gamma(kappa)=1/e" (exp (-1.0))
    (Discount.gamma ~kappa:60.0 60.0);
  Alcotest.(check bool) "decreasing" true
    (Discount.gamma ~kappa:60.0 10.0 > Discount.gamma ~kappa:60.0 20.0)

let gamma_monotone_prop =
  QCheck.Test.make ~name:"gamma is monotone decreasing in tau" ~count:300
    QCheck.(pair (float_bound_exclusive 100.0) (float_bound_exclusive 100.0))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Discount.gamma ~kappa:10.0 lo >= Discount.gamma ~kappa:10.0 hi)

let geometric_sum_matches_paper () =
  (* The §3.3 claim: sum e^{-t/kappa} ~ kappa + 0.5 for kappa >= 10 ms. *)
  List.iter
    (fun kappa ->
      let exact = Discount.geometric_sum ~kappa in
      let approx = Discount.paper_approximation ~kappa in
      let rel = Float.abs (exact -. approx) /. exact in
      if rel > 1e-3 then Alcotest.failf "kappa=%g rel err %g" kappa rel)
    [ 10.0; 50.0; 100.0; 1000.0; 10_000.0 ]

let geometric_sum_prop =
  QCheck.Test.make ~name:"geometric sum error shrinks as kappa grows" ~count:100
    QCheck.(float_range 10.0 10_000.0)
    (fun kappa ->
      let err k = Float.abs (Discount.geometric_sum ~kappa:k -. Discount.paper_approximation ~kappa:k) in
      err kappa >= err (kappa *. 2.0) -. 1e-12)

(* A model whose one likelihood-mode loss, node 0, passes [survive] of
   the packets that cross it; every test delivery crossed it. *)
let model ?(survive = 1.0) () =
  Forward.prepare Forward.default_config
    (Compiled.compile_exn
       { Topology.sources = [ Topology.endpoint Flow.Primary ]; shared = Topology.loss ~rate:(1.0 -. survive) })

let lossless = model ()

let delivery ?(flow = Flow.Primary) ~sent_at ~time () =
  { Forward.time; packet = Packet.make ~flow ~seq:0 ~sent_at (); trail = [ 0 ] }

let own_packet_discounted () =
  let config = Utility.make ~kappa:10.0 () in
  let u = Utility.of_delivery config lossless ~now:0.0 (delivery ~sent_at:0.0 ~time:10.0 ()) in
  Alcotest.(check (float 1e-9)) "bits * gamma" (12_000.0 *. exp (-1.0)) u

let survive_scales () =
  let config = Utility.make ~kappa:10.0 () in
  let full = Utility.of_delivery config lossless ~now:0.0 (delivery ~sent_at:0.0 ~time:5.0 ()) in
  let half = Utility.of_delivery config (model ~survive:0.5 ()) ~now:0.0 (delivery ~sent_at:0.0 ~time:5.0 ()) in
  Alcotest.(check (float 1e-9)) "linear in survive_p" (full /. 2.0) half

let alpha_weights_cross () =
  let config = Utility.make ~alpha:2.5 () in
  let u = Utility.of_delivery config lossless ~now:0.0 (delivery ~flow:Flow.Cross ~sent_at:0.0 ~time:3.0 ()) in
  (* Cross traffic undiscounted by default. *)
  Alcotest.(check (float 1e-9)) "alpha * bits" (2.5 *. 12_000.0) u

let cross_discounted_flag () =
  let config = Utility.make ~alpha:1.0 ~kappa:10.0 ~cross_discounted:true () in
  let u = Utility.of_delivery config lossless ~now:0.0 (delivery ~flow:Flow.Cross ~sent_at:0.0 ~time:10.0 ()) in
  Alcotest.(check (float 1e-9)) "discounted cross" (12_000.0 *. exp (-1.0)) u

let latency_penalty_applies_to_cross () =
  let config = Utility.make ~alpha:0.0 ~latency_penalty:2.0 () in
  let u = Utility.of_delivery config lossless ~now:0.0 (delivery ~flow:Flow.Cross ~sent_at:1.0 ~time:4.0 ()) in
  (* Delay 3 s, bits 12000: penalty 2 * 12000 * 3. *)
  Alcotest.(check (float 1e-9)) "pure penalty" (-72_000.0) u;
  let own = Utility.of_delivery config lossless ~now:0.0 (delivery ~sent_at:1.0 ~time:4.0 ()) in
  Alcotest.(check bool) "no penalty on own" true (own > 0.0)

let of_deliveries_sums () =
  let config = Utility.make ~kappa:10.0 () in
  let ds = [ delivery ~sent_at:0.0 ~time:1.0 (); delivery ~sent_at:0.0 ~time:2.0 () ] in
  let expected =
    Utility.of_delivery config lossless ~now:0.0 (List.nth ds 0)
    +. Utility.of_delivery config lossless ~now:0.0 (List.nth ds 1)
  in
  let state =
    Utc_model.Mstate.initial ~epoch:1.0
      (Compiled.compile_exn
         { Topology.sources = [ Topology.endpoint Flow.Primary ]; shared = Topology.series [] })
  in
  Alcotest.(check (float 1e-9)) "sum" expected
    (Utility.of_outcomes config lossless ~now:0.0 [ { Forward.state; logw = 0.0; deliveries = ds } ])

let of_outcomes_expectation () =
  let config = Utility.make ~kappa:10.0 () in
  let d = delivery ~sent_at:0.0 ~time:1.0 () in
  let state =
    Utc_model.Mstate.initial ~epoch:1.0
      (Compiled.compile_exn
         { Topology.sources = [ Topology.endpoint Flow.Primary ]; shared = Topology.series [] })
  in
  let outcomes =
    [
      { Forward.state; logw = log 0.25; deliveries = [ d ] };
      { Forward.state; logw = log 0.75; deliveries = [] };
    ]
  in
  let expected = 0.25 *. Utility.of_delivery config lossless ~now:0.0 d in
  Alcotest.(check (float 1e-9)) "weighted" expected (Utility.of_outcomes config lossless ~now:0.0 outcomes)

let utility_now_shift_prop =
  QCheck.Test.make ~name:"own utility depends only on time - now" ~count:200
    QCheck.(pair (float_bound_exclusive 50.0) (float_bound_exclusive 50.0))
    (fun (now, tau) ->
      let config = Utility.make ~kappa:7.0 () in
      let a = Utility.of_delivery config lossless ~now (delivery ~sent_at:now ~time:(now +. tau) ()) in
      let b = Utility.of_delivery config lossless ~now:0.0 (delivery ~sent_at:0.0 ~time:tau ()) in
      Float.abs (a -. b) < 1e-6)

let suite =
  [
    ("gamma basics", `Quick, gamma_basics);
    QCheck_alcotest.to_alcotest gamma_monotone_prop;
    ("geometric sum matches paper", `Quick, geometric_sum_matches_paper);
    QCheck_alcotest.to_alcotest geometric_sum_prop;
    ("own packet discounted", `Quick, own_packet_discounted);
    ("survive scales", `Quick, survive_scales);
    ("alpha weights cross", `Quick, alpha_weights_cross);
    ("cross discounted flag", `Quick, cross_discounted_flag);
    ("latency penalty on cross", `Quick, latency_penalty_applies_to_cross);
    ("of_deliveries sums", `Quick, of_deliveries_sums);
    ("of_outcomes expectation", `Quick, of_outcomes_expectation);
    QCheck_alcotest.to_alcotest utility_now_shift_prop;
  ]

(* --- additional edges --- *)

let of_outcomes_empty () =
  let config = Utility.make () in
  Alcotest.(check (float 0.0)) "no outcomes, no utility" 0.0
    (Utility.of_outcomes config lossless ~now:0.0 [])

let make_defaults () =
  let config = Utility.make () in
  Alcotest.(check (float 0.0)) "alpha" 1.0 config.Utility.alpha;
  Alcotest.(check (float 0.0)) "kappa" 60.0 config.Utility.kappa;
  Alcotest.(check (float 0.0)) "beta" 0.0 config.Utility.latency_penalty;
  Alcotest.(check bool) "cross undiscounted (S4 form)" false config.Utility.cross_discounted

let aux_flow_counts_as_cross () =
  let config = Utility.make ~alpha:2.0 () in
  let u = Utility.of_delivery config lossless ~now:0.0 (delivery ~flow:(Flow.Aux 3) ~sent_at:0.0 ~time:1.0 ()) in
  Alcotest.(check (float 1e-9)) "aux weighted by alpha" (2.0 *. 12_000.0) u

let utility_extra_suite =
  [
    ("of_outcomes empty", `Quick, of_outcomes_empty);
    ("make defaults", `Quick, make_defaults);
    ("aux flow as cross", `Quick, aux_flow_counts_as_cross);
  ]

let suite = suite @ utility_extra_suite
