open Utc_net

type config = {
  alpha : float;
  kappa : float;
  latency_penalty : float;
  cross_discounted : bool;
}

let default = { alpha = 1.0; kappa = 60.0; latency_penalty = 0.0; cross_discounted = false }

let make ?(alpha = default.alpha) ?(kappa = default.kappa)
    ?(latency_penalty = default.latency_penalty) ?(cross_discounted = default.cross_discounted) () =
  { alpha; kappa; latency_penalty; cross_discounted }

(* Inlined, so a caller's sum takes the term unboxed. *)
let[@inline] of_delivery config model ~now (d : Utc_model.Forward.delivery) =
  let tau = d.time -. now in
  let bits = Utc_model.Forward.survive_p model d *. float_of_int d.packet.Packet.bits in
  match d.packet.Packet.flow with
  | Flow.Primary -> bits *. Discount.gamma ~kappa:config.kappa tau
  | Flow.Cross | Flow.Aux _ ->
    let gamma = if config.cross_discounted then Discount.gamma ~kappa:config.kappa tau else 1.0 in
    let delay = d.time -. d.packet.Packet.sent_at in
    (config.alpha *. bits *. gamma) -. (config.latency_penalty *. bits *. delay)

let of_deliveries config model ~now deliveries =
  List.fold_left (fun acc d -> acc +. of_delivery config model ~now d) 0.0 deliveries

let of_outcomes config model ~now outcomes =
  let term acc (o : Utc_model.Forward.outcome) =
    acc +. (exp o.logw *. of_deliveries config model ~now o.deliveries)
  in
  List.fold_left term 0.0 outcomes
