type t =
  | Primary
  | Cross
  | Aux of int

let equal a b =
  match a, b with
  | Primary, Primary -> true
  | Cross, Cross -> true
  | Aux i, Aux j -> i = j
  | (Primary | Cross | Aux _), _ -> false

(* Negative ids sort before [Primary], the others after [Cross]; Aux ids
   compare as ints, so no offset can overflow. *)
let compare a b =
  match a, b with
  | Primary, Primary | Cross, Cross -> 0
  | Primary, Cross -> -1
  | Cross, Primary -> 1
  | Aux i, Aux j -> Int.compare i j
  | Aux i, (Primary | Cross) -> if i < 0 then -1 else 1
  | (Primary | Cross), Aux j -> if j < 0 then 1 else -1

let hash = function
  | Primary -> 0
  | Cross -> 1
  | Aux i -> if i >= 0 then 2 + i else i

let rank = function
  | Primary -> 0
  | Cross -> 1
  | Aux i -> if i >= 0 && i < Sys.max_array_length - 2 then 2 + i else -1

let of_rank = function
  | 0 -> Primary
  | 1 -> Cross
  | rank -> Aux (rank - 2)

let to_string = function
  | Primary -> "primary"
  | Cross -> "cross"
  | Aux i -> "aux" ^ string_of_int i

let pp ppf t = Format.pp_print_string ppf (to_string t)
