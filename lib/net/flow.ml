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

let hash = function
  | Primary -> 0
  | Cross -> 1
  | Aux i -> if i >= 0 then 2 + i else i

let rank = function
  | Primary -> 0
  | Cross -> 1
  | Aux i -> if i >= 0 && i < Sys.max_array_length - 2 then 2 + i else -1

let to_string = function
  | Primary -> "primary"
  | Cross -> "cross"
  | Aux i -> "aux" ^ string_of_int i

let pp ppf t = Format.pp_print_string ppf (to_string t)
