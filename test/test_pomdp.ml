(* Tests for the MDP solver and the discretized transmission policy. *)
module Mdp = Utc_pomdp.Mdp
module Sender_mdp = Utc_pomdp.Sender_mdp

(* A 2-state chain with a known closed-form solution: action 0 stays
   (reward 0), action 1 moves to the absorbing state 1 (reward 1 once);
   state 1 is absorbing with reward 0. Optimal: move immediately;
   V(0) = 1, V(1) = 0, whatever the discount. *)
let tiny =
  {
    Mdp.states = 2;
    actions = 2;
    transition =
      (fun s a ->
        match s, a with
        | 0, 0 -> [ (0, 1.0) ]
        | 0, 1 -> [ (1, 1.0) ]
        | 1, _ -> [ (1, 1.0) ]
        | _ -> assert false);
    reward = (fun s a -> if s = 0 && a = 1 then 1.0 else 0.0);
  }

let value_iteration_tiny () =
  let solution = Mdp.value_iteration tiny in
  Alcotest.(check (float 1e-6)) "V(0)" 1.0 solution.Mdp.values.(0);
  Alcotest.(check (float 1e-6)) "V(1)" 0.0 solution.Mdp.values.(1);
  Alcotest.(check int) "policy moves" 1 solution.Mdp.policy.(0);
  Alcotest.(check bool) "converged" true (solution.Mdp.residual < 1e-8)

(* The policy is greedy with respect to the values: in every state its
   action maximizes reward plus the discounted (0.95) expected value. *)
let greedy_of_optimal_is_optimal () =
  let solution = Mdp.value_iteration tiny in
  let q s a =
    tiny.Mdp.reward s a
    +. (0.95
       *. List.fold_left
            (fun acc (s', p) -> acc +. (p *. solution.Mdp.values.(s')))
            0.0 (tiny.Mdp.transition s a))
  in
  for s = 0 to tiny.Mdp.states - 1 do
    let chosen = q s solution.Mdp.policy.(s) in
    for a = 0 to tiny.Mdp.actions - 1 do
      if q s a > chosen +. 1e-9 then Alcotest.failf "state %d: action %d beats the policy's" s a
    done
  done

let validate_catches_bad_mdp () =
  let broken = { tiny with Mdp.transition = (fun _ _ -> [ (0, 0.5) ]) } in
  match Mdp.value_iteration broken with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unnormalized transition accepted"

(* --- the transmission MDP --- *)

let sender_mdp_valid () =
  List.iter
    (fun alpha ->
      match Sender_mdp.solve { Sender_mdp.default with Sender_mdp.alpha } with
      | _ -> ()
      | exception Invalid_argument msg -> Alcotest.failf "invalid MDP at alpha=%g: %s" alpha msg)
    [ 0.0; 1.0; 5.0 ]

(* The queue's capacity: its largest occupancy. *)
let capacity = Array.length (Sender_mdp.solve Sender_mdp.default).Mdp.values - 1

let selfish_policy_always_sends () =
  let solution = Sender_mdp.solve { Sender_mdp.default with Sender_mdp.alpha = 0.0 } in
  Alcotest.(check int) "sends at every occupancy below capacity" capacity
    (Sender_mdp.send_threshold solution)

let threshold_monotone_in_alpha () =
  let threshold alpha =
    Sender_mdp.send_threshold (Sender_mdp.solve { Sender_mdp.default with Sender_mdp.alpha })
  in
  let ts = List.map threshold [ 0.0; 0.5; 1.0; 2.5; 5.0 ] in
  let rec nonincreasing = function
    | a :: (b :: _ as rest) -> a >= b && nonincreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool)
    (Printf.sprintf "thresholds %s nonincreasing"
       (String.concat "," (List.map string_of_int ts)))
    true (nonincreasing ts);
  Alcotest.(check bool) "deference actually kicks in" true
    (List.nth ts 4 < List.nth ts 0)

let no_cross_traffic_means_no_deference () =
  let solution = Sender_mdp.solve { Sender_mdp.cross_prob = 0.0; alpha = 10.0 } in
  Alcotest.(check int) "alpha irrelevant without cross traffic" capacity
    (Sender_mdp.send_threshold solution)

let policy_pp_smoke () =
  let text = Format.asprintf "%a" Sender_mdp.pp_policy (Sender_mdp.solve Sender_mdp.default) in
  Alcotest.(check bool) "prints" true (String.length text > 50)

(* The threshold and the iteration count of the default problem at the
   priorities examples/precomputed_policy prints: they pin the queue
   size, the delay discount and value iteration's discount and stopping
   rule together. *)
let solve_pins_thresholds_and_iterations () =
  List.iter
    (fun (alpha, threshold, iterations) ->
      let solution = Sender_mdp.solve { Sender_mdp.default with Sender_mdp.alpha } in
      Alcotest.(check (pair int int))
        (Printf.sprintf "alpha=%g" alpha)
        (threshold, iterations)
        (Sender_mdp.send_threshold solution, solution.Mdp.iterations))
    [ (0.0, 8, 403); (0.5, 8, 403); (1.0, 8, 394); (2.5, 7, 336); (5.0, 1, 346) ]

let suite =
  [
    ("value iteration tiny", `Quick, value_iteration_tiny);
    ("greedy of optimal", `Quick, greedy_of_optimal_is_optimal);
    ("validate catches bad mdp", `Quick, validate_catches_bad_mdp);
    ("sender mdp valid", `Quick, sender_mdp_valid);
    ("selfish always sends", `Quick, selfish_policy_always_sends);
    ("threshold monotone in alpha", `Quick, threshold_monotone_in_alpha);
    ("no cross no deference", `Quick, no_cross_traffic_means_no_deference);
    ("policy pp", `Quick, policy_pp_smoke);
    ("solve pins thresholds and iterations", `Quick, solve_pins_thresholds_and_iterations);
  ]
