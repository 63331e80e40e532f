(* Inlined, so a caller's arithmetic takes the factor unboxed. *)
let[@inline] gamma ~kappa tau =
  assert (kappa > 0.0);
  exp (-.tau /. kappa)

let geometric_sum ~kappa =
  assert (kappa > 0.0);
  1.0 /. (1.0 -. exp (-1.0 /. kappa))

let paper_approximation ~kappa = kappa +. 0.5
