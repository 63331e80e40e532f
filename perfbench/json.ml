(* Just enough JSON for the benchmark's own files: result lines written
   by child processes, result sets, and BENCHMARK.json. Reading is the
   dashboard's parser; this module adds accessors and a writer. *)

type t = Utc_stats.Dashboard.json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let parse s =
  match Utc_stats.Dashboard.parse_json s with
  | Some v -> v
  | None -> raise (Error "malformed JSON")

let member k = function
  | Obj fields -> Option.value (List.assoc_opt k fields) ~default:Null
  | Null | Bool _ | Num _ | Str _ | Arr _ -> Null

let to_num = function
  | Num x -> x
  | Null | Bool _ | Str _ | Arr _ | Obj _ -> raise (Error "expected a number")

let to_str = function
  | Str s -> s
  | Null | Bool _ | Num _ | Arr _ | Obj _ -> raise (Error "expected a string")

let to_list = function
  | Arr l -> l
  | Null -> []
  | Bool _ | Num _ | Str _ | Obj _ -> raise (Error "expected a list")

let to_obj = function
  | Obj l -> l
  | Null -> []
  | Bool _ | Num _ | Str _ | Arr _ -> raise (Error "expected an object")

(* Shortest decimal that reads back as the same float. *)
let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else begin
    let short = Printf.sprintf "%.15g" x in
    if Float.equal (float_of_string short) x then short else Printf.sprintf "%.17g" x
  end

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num x -> if Float.is_finite x then number x else "null"
  | Str s -> Utc_obs.Obs_json.quote s
  | Arr l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Utc_obs.Obs_json.quote k ^ ":" ^ to_string v) fields)
    ^ "}"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse s

let write_file path v =
  let oc = open_out_bin path in
  output_string oc (to_string v);
  output_char oc '\n';
  close_out oc
