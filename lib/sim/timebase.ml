type t = float

let zero = 0.0
let infinity = Stdlib.infinity
let add = ( +. )
let sub = ( -. )
let compare = Float.compare
let ( <. ) a b = Float.compare a b < 0
let ( <=. ) a b = Float.compare a b <= 0
let ( >. ) a b = Float.compare a b > 0
let ( >=. ) a b = Float.compare a b >= 0
let close ~tol a b = Float.abs (a -. b) <= tol
let pp ppf t = Format.fprintf ppf "%.3fs" t
