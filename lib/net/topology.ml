type discipline =
  | Fifo
  | Arq of { try_loss : float; per_try_overhead : float }
  | Red
  | Codel

type element =
  | Buffer of { capacity_bits : int }
  | Throughput of { rate_bps : float }
  | Station of { capacity_bits : int option; rate_bps : float; discipline : discipline }
  | Delay of { seconds : float }
  | Loss of { rate : float }
  | Jitter of { seconds : float; probability : float }
  | Intermittent of { mean_time_to_switch : float; initially_connected : bool }
  | Squarewave of { interval : float; initially_connected : bool }
  | Series of element list
  | Diverter of { routes : (Flow.t * element) list; otherwise : element }
  | Either of {
      first : element;
      second : element;
      mean_time_to_switch : float;
      initially_first : bool;
    }
  | Multipath of {
      first : element;
      second : element;
      policy : [ `Round_robin | `Random of float ];
    }
  | Deliver

type source =
  | Endpoint of { flow : Flow.t; access : element }
  | Pinger of { flow : Flow.t; rate_pps : float; size_bits : int; access : element }

type t = { sources : source list; shared : element }

let series elements = Series elements
let buffer ~capacity_bits = Buffer { capacity_bits }
let throughput ~rate_bps = Throughput { rate_bps }
let station ?capacity_bits ?(discipline = Fifo) ~rate_bps () =
  Station { capacity_bits; rate_bps; discipline }
let delay ~seconds = Delay { seconds }
let loss ~rate = Loss { rate }
let jitter ~seconds ~probability = Jitter { seconds; probability }

let intermittent ?(initially_connected = true) ~mean_time_to_switch () =
  Intermittent { mean_time_to_switch; initially_connected }

let squarewave ?(initially_connected = true) ~interval () =
  Squarewave { interval; initially_connected }

let multipath ?(policy = `Round_robin) ~first ~second () = Multipath { first; second; policy }

let endpoint ?(access = Series []) flow = Endpoint { flow; access }

let pinger ?(access = Series []) ?(size_bits = Packet.default_bits) ~flow ~rate_pps () =
  Pinger { flow; rate_pps; size_bits; access }

let figure2 ~link_bps ~buffer_bits ~loss_rate ~pinger_pps ~cross_gate =
  {
    sources =
      [
        endpoint Flow.Primary;
        pinger ~access:cross_gate ~flow:Flow.Cross ~rate_pps:pinger_pps ();
      ];
    shared =
      Series
        [ buffer ~capacity_bits:buffer_bits; throughput ~rate_bps:link_bps; loss ~rate:loss_rate ];
  }

(* --- validation --- *)

let source_flow = function
  | Endpoint { flow; _ } -> flow
  | Pinger { flow; _ } -> flow

let rec validate_element elt =
  let ok = Ok () in
  let fail fmt = Format.kasprintf (fun msg -> Error msg) fmt in
  match elt with
  | Buffer { capacity_bits } ->
    if capacity_bits <= 0 then fail "Buffer capacity must be positive (got %d)" capacity_bits
    else ok
  | Throughput { rate_bps } ->
    if rate_bps <= 0.0 then fail "Throughput rate must be positive (got %g)" rate_bps else ok
  | Station { capacity_bits; rate_bps; discipline } -> (
    if rate_bps <= 0.0 then fail "Station rate must be positive (got %g)" rate_bps
    else
      match capacity_bits, discipline with
      | Some c, _ when c <= 0 -> fail "Station capacity must be positive (got %d)" c
      | _, Arq { try_loss; _ } when try_loss < 0.0 || try_loss >= 1.0 ->
        fail "ARQ per-try loss must be in [0, 1) (got %g)" try_loss
      | _, Arq { per_try_overhead; _ } when per_try_overhead < 0.0 ->
        fail "ARQ per-try overhead must be non-negative (got %g)" per_try_overhead
      | None, Red -> fail "RED station needs a capacity"
      | _, (Fifo | Arq _ | Red | Codel) -> ok)
  | Delay { seconds } ->
    if seconds < 0.0 then fail "Delay must be non-negative (got %g)" seconds else ok
  | Loss { rate } ->
    if rate < 0.0 || rate > 1.0 then fail "Loss rate must be in [0, 1] (got %g)" rate else ok
  | Jitter { seconds; probability } ->
    if seconds < 0.0 then fail "Jitter delay must be non-negative (got %g)" seconds
    else if probability < 0.0 || probability > 1.0 then
      fail "Jitter probability must be in [0, 1] (got %g)" probability
    else ok
  | Intermittent { mean_time_to_switch; _ } ->
    if mean_time_to_switch <= 0.0 then
      fail "Intermittent mean time to switch must be positive (got %g)" mean_time_to_switch
    else ok
  | Squarewave { interval; _ } ->
    if interval <= 0.0 then fail "Squarewave interval must be positive (got %g)" interval else ok
  | Series elements -> validate_all elements
  | Diverter { routes; otherwise } ->
    let rec check_routes seen = function
      | [] -> validate_element otherwise
      | (flow, elt) :: rest ->
        if List.exists (Flow.equal flow) seen then
          fail "Diverter has duplicate route for flow %a" Flow.pp flow
        else begin
          match validate_element elt with
          | Error _ as e -> e
          | Ok () -> check_routes (flow :: seen) rest
        end
    in
    check_routes [] routes
  | Either { first; second; mean_time_to_switch; _ } ->
    if mean_time_to_switch <= 0.0 then
      fail "Either mean time to switch must be positive (got %g)" mean_time_to_switch
    else begin
      match validate_element first with
      | Error _ as e -> e
      | Ok () -> validate_element second
    end
  | Multipath { first; second; policy } -> (
    let policy_ok =
      match policy with
      | `Round_robin -> ok
      | `Random p ->
        if p < 0.0 || p > 1.0 then fail "Multipath probability must be in [0, 1] (got %g)" p
        else ok
    in
    match policy_ok with
    | Error _ as e -> e
    | Ok () -> (
      match validate_element first with
      | Error _ as e -> e
      | Ok () -> validate_element second))
  | Deliver -> ok

and validate_all = function
  | [] -> Ok ()
  | elt :: rest -> (
    match validate_element elt with
    | Error _ as e -> e
    | Ok () -> validate_all rest)

let validate t =
  let fail fmt = Format.kasprintf (fun msg -> Error msg) fmt in
  match t.sources with
  | [] -> fail "network has no sources"
  | _ :: _ -> begin
    let flows = List.map source_flow t.sources in
    let rec dup = function
      | [] -> None
      | f :: rest -> if List.exists (Flow.equal f) rest then Some f else dup rest
    in
    match dup flows, List.find_opt (fun f -> Flow.rank f < 0) flows with
    | Some f, _ -> fail "duplicate source for flow %a" Flow.pp f
    | None, Some f ->
      fail
        "source flow %a cannot index a flow table: Aux ids must be non-negative and below \
         Sys.max_array_length - 2"
        Flow.pp f
    | None, None -> (
      let validate_source = function
        | Endpoint { access; _ } -> validate_element access
        | Pinger { rate_pps; size_bits; access; _ } ->
          if rate_pps <= 0.0 then fail "Pinger rate must be positive (got %g)" rate_pps
          else if size_bits <= 0 then fail "Pinger packet size must be positive (got %d)" size_bits
          else validate_element access
      in
      let rec sources = function
        | [] -> validate_element t.shared
        | s :: rest -> (
          match validate_source s with
          | Error _ as e -> e
          | Ok () -> sources rest)
      in
      sources t.sources)
  end

(* --- normalization --- *)

let rec flatten = function
  | Series elements -> List.concat_map flatten elements
  | elt -> [ elt ]

(* Fuse Buffer;Throughput adjacencies into Stations over a flattened
   pipeline. A bare Throughput becomes an unbounded station; a bare Buffer
   (instant drain, never fills, never drops) is the identity and vanishes. *)
let rec fuse = function
  | Buffer { capacity_bits } :: Throughput { rate_bps } :: rest ->
    Station { capacity_bits = Some capacity_bits; rate_bps; discipline = Fifo } :: fuse rest
  | Buffer _ :: rest -> fuse rest
  | Throughput { rate_bps } :: rest ->
    Station { capacity_bits = None; rate_bps; discipline = Fifo } :: fuse rest
  | elt :: rest -> normalize_element elt :: fuse rest
  | [] -> []

and normalize_element elt =
  match elt with
  | Series _ | Buffer _ | Throughput _ -> (
    match fuse (flatten elt) with
    | [ single ] -> single
    | elements -> Series elements)
  | Diverter { routes; otherwise } ->
    let normalize_route (flow, e) = (flow, normalize_element e) in
    Diverter { routes = List.map normalize_route routes; otherwise = normalize_element otherwise }
  | Either { first; second; mean_time_to_switch; initially_first } ->
    Either
      {
        first = normalize_element first;
        second = normalize_element second;
        mean_time_to_switch;
        initially_first;
      }
  | Multipath { first; second; policy } ->
    Multipath { first = normalize_element first; second = normalize_element second; policy }
  | Station _ | Delay _ | Loss _ | Jitter _ | Intermittent _ | Squarewave _ | Deliver -> elt

let normalize t =
  let normalize_source = function
    | Endpoint { flow; access } -> Endpoint { flow; access = normalize_element access }
    | Pinger { flow; rate_pps; size_bits; access } ->
      Pinger { flow; rate_pps; size_bits; access = normalize_element access }
  in
  { sources = List.map normalize_source t.sources; shared = normalize_element t.shared }

(* --- pretty-printing --- *)

let pp_discipline ppf = function
  | Fifo -> Format.fprintf ppf "fifo"
  | Arq { try_loss; per_try_overhead } ->
    Format.fprintf ppf "arq(p=%g,+%gs)" try_loss per_try_overhead
  | Red -> Format.fprintf ppf "red"
  | Codel -> Format.fprintf ppf "codel"

(* FIFO stations print as they always have; other disciplines append. *)
let pp_station_discipline ppf = function
  | Fifo -> ()
  | d -> Format.fprintf ppf ",%a" pp_discipline d

let rec pp_element ppf = function
  | Buffer { capacity_bits } -> Format.fprintf ppf "Buffer(%db)" capacity_bits
  | Throughput { rate_bps } -> Format.fprintf ppf "Throughput(%gbps)" rate_bps
  | Station { capacity_bits = None; rate_bps; discipline } ->
    Format.fprintf ppf "Station(inf,%gbps%a)" rate_bps pp_station_discipline discipline
  | Station { capacity_bits = Some c; rate_bps; discipline } ->
    Format.fprintf ppf "Station(%db,%gbps%a)" c rate_bps pp_station_discipline discipline
  | Delay { seconds } -> Format.fprintf ppf "Delay(%gs)" seconds
  | Loss { rate } -> Format.fprintf ppf "Loss(%g)" rate
  | Jitter { seconds; probability } -> Format.fprintf ppf "Jitter(%gs,p=%g)" seconds probability
  | Intermittent { mean_time_to_switch; initially_connected } ->
    Format.fprintf ppf "Intermittent(mtts=%gs,%s)" mean_time_to_switch
      (if initially_connected then "on" else "off")
  | Squarewave { interval; initially_connected } ->
    Format.fprintf ppf "Squarewave(%gs,%s)" interval (if initially_connected then "on" else "off")
  | Series [] -> Format.fprintf ppf "Wire"
  | Series elements ->
    let sep ppf () = Format.fprintf ppf " -> " in
    Format.fprintf ppf "[%a]" (Format.pp_print_list ~pp_sep:sep pp_element) elements
  | Diverter { routes; otherwise } ->
    let pp_route ppf (flow, e) = Format.fprintf ppf "%a=>%a" Flow.pp flow pp_element e in
    let sep ppf () = Format.fprintf ppf "; " in
    Format.fprintf ppf "Diverter{%a; else=>%a}"
      (Format.pp_print_list ~pp_sep:sep pp_route)
      routes pp_element otherwise
  | Either { first; second; mean_time_to_switch; initially_first } ->
    Format.fprintf ppf "Either{%a | %a; mtts=%gs,%s}" pp_element first pp_element second
      mean_time_to_switch
      (if initially_first then "first" else "second")
  | Multipath { first; second; policy } ->
    let pp_policy ppf = function
      | `Round_robin -> Format.fprintf ppf "rr"
      | `Random p -> Format.fprintf ppf "p=%g" p
    in
    Format.fprintf ppf "Multipath{%a | %a; %a}" pp_element first pp_element second pp_policy
      policy
  | Deliver -> Format.fprintf ppf "Deliver"

let pp_source ppf = function
  | Endpoint { flow; access } -> Format.fprintf ppf "Endpoint(%a) via %a" Flow.pp flow pp_element access
  | Pinger { flow; rate_pps; size_bits; access } ->
    Format.fprintf ppf "Pinger(%a, %gpps, %db) via %a" Flow.pp flow rate_pps size_bits pp_element
      access

let pp ppf t =
  Format.fprintf ppf "@[<v>sources:@;<1 2>@[<v>%a@]@,shared: %a@]"
    (Format.pp_print_list pp_source) t.sources pp_element t.shared
