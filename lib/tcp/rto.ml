(* Initial timeout, floor and ceiling, in seconds. *)
let initial_rto = 1.0
let min_rto = 0.2
let max_rto = 60.0

type t = {
  mutable srtt : float option;
  mutable rttvar : float;
  mutable rto : float;
}

let create () = { srtt = None; rttvar = 0.0; rto = initial_rto }
let clamp value = Float.max min_rto (Float.min max_rto value)

let observe t ~rtt =
  let () =
    match t.srtt with
    | None ->
      t.srtt <- Some rtt;
      t.rttvar <- rtt /. 2.0
    | Some srtt ->
      (* RFC 6298: beta = 1/4, alpha = 1/8. *)
      t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (srtt -. rtt));
      t.srtt <- Some ((0.875 *. srtt) +. (0.125 *. rtt))
  in
  match t.srtt with
  | Some srtt -> t.rto <- clamp (srtt +. Float.max 0.001 (4.0 *. t.rttvar))
  | None -> ()

let on_timeout t = t.rto <- clamp (t.rto *. 2.0)
let rto t = t.rto
let srtt t = t.srtt
let rttvar t = if t.srtt = None then None else Some t.rttvar
