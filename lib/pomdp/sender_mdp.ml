type config = {
  cross_prob : float;
  alpha : float;
}

let default = { cross_prob = 0.7; alpha = 1.0 }

(* The queue holds 8 packets; a packet admitted behind [s] others is
   worth [delay_discount ** s]. *)
let capacity = 8
let delay_discount = 0.98

let action_idle = 0
let action_send = 1

(* One tick, from occupancy [s], after choosing whether to send:
   1. our packet (if sent) is admitted when s < capacity, else dropped;
   2. a cross packet arrives with probability [cross_prob] and is
      admitted when there is still room, else dropped;
   3. one packet departs if the queue is non-empty.
   Rewards are credited at admission, discounted by the occupancy the
   packet queues behind. The fields are read once: [config] is an
   all-float record, stored unboxed, so reading [cross_prob] into
   [transition]'s list would box it on every call. *)
let make { cross_prob; alpha } =
  if cross_prob < 0.0 || cross_prob > 1.0 then
    invalid_arg "Sender_mdp.make: cross_prob must be in [0, 1]";
  let states = capacity + 1 in
  let after_send s send = if send && s < capacity then s + 1 else s in
  let transition s a =
    let s1 = after_send s (a = action_send) in
    let depart occupancy = Stdlib.max 0 (occupancy - 1) in
    let with_cross = depart (Stdlib.min capacity (s1 + 1)) in
    let without_cross = depart s1 in
    if with_cross = without_cross then [ (with_cross, 1.0) ]
    else [ (with_cross, cross_prob); (without_cross, 1.0 -. cross_prob) ]
  in
  let reward s a =
    let own = if a = action_send && s < capacity then delay_discount ** float_of_int s else 0.0 in
    let s1 = after_send s (a = action_send) in
    let cross =
      if s1 < capacity then cross_prob *. alpha *. (delay_discount ** float_of_int s1)
      else 0.0 (* arriving cross packet would be tail-dropped *)
    in
    own +. cross
  in
  { Mdp.states; actions = 2; transition; reward }

let solve config = Mdp.value_iteration (make config)

let send_threshold (solution : Mdp.solution) =
  let policy = solution.Mdp.policy in
  let n = Array.length policy in
  let rec first_idle i = if i = n || policy.(i) = action_idle then i else first_idle (i + 1) in
  let threshold = first_idle 0 in
  (* Threshold form: send below, idle at and above. *)
  for i = threshold to n - 1 do
    if policy.(i) = action_send then
      invalid_arg "Sender_mdp.send_threshold: policy is not of threshold form"
  done;
  threshold

let pp_policy ppf (solution : Mdp.solution) =
  Format.fprintf ppf "occupancy: action (value)@.";
  Array.iteri
    (fun s a ->
      Format.fprintf ppf "  %2d: %s (%.3f)@." s
        (if a = action_send then "send" else "idle")
        solution.Mdp.values.(s))
    solution.Mdp.policy
