type link =
  | To of int
  | Deliver

type gate_kind =
  | Memoryless of { mean_time_to_switch : float; initially_connected : bool }
  | Periodic of { interval : float; initially_connected : bool }

type node =
  | Station of {
      capacity_bits : int option;
      rate_bps : float;
      discipline : Topology.discipline;
      next : link;
    }
  | Delay of { seconds : float; next : link }
  | Loss of { rate : float; next : link }
  | Jitter of { seconds : float; probability : float; next : link }
  | Gate of { kind : gate_kind; next : link }
  | Either of { mean_time_to_switch : float; initially_first : bool; first : link; second : link }
  | Divert of { routes : (Flow.t * link) list; otherwise : link }
  | Multipath of { policy : [ `Round_robin | `Random of float ]; first : link; second : link }

type pinger = { flow : Flow.t; rate_pps : float; size_bits : int; entry : link }

type t = {
  nodes : node array;
  entries : (Flow.t * link) list;
  pingers : pinger list;
}

type builder = { mutable acc : node list; mutable count : int }

let alloc builder node =
  let id = builder.count in
  builder.acc <- node :: builder.acc;
  builder.count <- builder.count + 1;
  To id

(* Compile an element so that its output feeds [next]. A Series compiles
   right to left; Deliver short-circuits (anything after it in a series is
   unreachable by construction of the AST semantics). *)
let rec compile_element builder elt next =
  match elt with
  | Topology.Deliver -> Deliver
  | Topology.Series elements -> List.fold_right (compile_element builder) elements next
  | Topology.Buffer _ ->
    (* normalize removes bare buffers; if one survives (user skipped
       normalize), it is the identity: instant drain never queues. *)
    next
  | Topology.Throughput { rate_bps } ->
    alloc builder (Station { capacity_bits = None; rate_bps; discipline = Fifo; next })
  | Topology.Station { capacity_bits; rate_bps; discipline } ->
    alloc builder (Station { capacity_bits; rate_bps; discipline; next })
  | Topology.Delay { seconds } -> alloc builder (Delay { seconds; next })
  | Topology.Loss { rate } -> alloc builder (Loss { rate; next })
  | Topology.Jitter { seconds; probability } -> alloc builder (Jitter { seconds; probability; next })
  | Topology.Intermittent { mean_time_to_switch; initially_connected } ->
    alloc builder (Gate { kind = Memoryless { mean_time_to_switch; initially_connected }; next })
  | Topology.Squarewave { interval; initially_connected } ->
    alloc builder (Gate { kind = Periodic { interval; initially_connected }; next })
  | Topology.Diverter { routes; otherwise } ->
    let compile_route (flow, e) = (flow, compile_element builder e next) in
    let routes = List.map compile_route routes in
    let otherwise = compile_element builder otherwise next in
    alloc builder (Divert { routes; otherwise })
  | Topology.Either { first; second; mean_time_to_switch; initially_first } ->
    let first = compile_element builder first next in
    let second = compile_element builder second next in
    alloc builder (Either { mean_time_to_switch; initially_first; first; second })
  | Topology.Multipath { first; second; policy } ->
    let first = compile_element builder first next in
    let second = compile_element builder second next in
    alloc builder (Multipath { policy; first; second })

let compile topology =
  match Topology.validate topology with
  | Error _ as e -> e
  | Ok () ->
    let topology = Topology.normalize topology in
    let builder = { acc = []; count = 0 } in
    let shared_entry = compile_element builder topology.Topology.shared Deliver in
    let compile_source (entries, pingers) source =
      match source with
      | Topology.Endpoint { flow; access } ->
        let entry = compile_element builder access shared_entry in
        ((flow, entry) :: entries, pingers)
      | Topology.Pinger { flow; rate_pps; size_bits; access } ->
        let entry = compile_element builder access shared_entry in
        (entries, { flow; rate_pps; size_bits; entry } :: pingers)
    in
    let entries, pingers = List.fold_left compile_source ([], []) topology.Topology.sources in
    let nodes = Array.of_list (List.rev builder.acc) in
    Ok { nodes; entries = List.rev entries; pingers = List.rev pingers }

let compile_exn topology =
  match compile topology with
  | Ok t -> t
  | Error msg -> invalid_arg ("Compiled.compile: " ^ msg)

let entry t flow =
  match List.assoc_opt flow t.entries with
  | Some link -> link
  | None -> raise Not_found

let node t id = t.nodes.(id)
let node_count t = Array.length t.nodes

let station_ids t =
  let ids = ref [] in
  Array.iteri
    (fun id n ->
      match n with
      | Station _ -> ids := id :: !ids
      | Delay _ | Loss _ | Jitter _ | Gate _ | Either _ | Divert _ | Multipath _ -> ())
    t.nodes;
  List.rev !ids

let pp_link ppf = function
  | To id -> Format.fprintf ppf "->%d" id
  | Deliver -> Format.fprintf ppf "->deliver"

let pp_node ppf = function
  | Station { capacity_bits; rate_bps; discipline; next } ->
    let cap ppf = function
      | None -> Format.fprintf ppf "inf"
      | Some c -> Format.fprintf ppf "%db" c
    in
    Format.fprintf ppf "Station(%a,%gbps%a)%a" cap capacity_bits rate_bps
      Topology.pp_station_discipline discipline pp_link next
  | Delay { seconds; next } -> Format.fprintf ppf "Delay(%gs)%a" seconds pp_link next
  | Loss { rate; next } -> Format.fprintf ppf "Loss(%g)%a" rate pp_link next
  | Jitter { seconds; probability; next } ->
    Format.fprintf ppf "Jitter(%gs,p=%g)%a" seconds probability pp_link next
  | Gate { kind = Memoryless { mean_time_to_switch; initially_connected }; next } ->
    Format.fprintf ppf "Gate(memoryless,%gs,%s)%a" mean_time_to_switch
      (if initially_connected then "on" else "off")
      pp_link next
  | Gate { kind = Periodic { interval; initially_connected }; next } ->
    Format.fprintf ppf "Gate(periodic,%gs,%s)%a" interval
      (if initially_connected then "on" else "off")
      pp_link next
  | Either { mean_time_to_switch; initially_first; first; second } ->
    Format.fprintf ppf "Either(%gs,%s)%a|%a" mean_time_to_switch
      (if initially_first then "first" else "second")
      pp_link first pp_link second
  | Divert { routes; otherwise } ->
    let pp_route ppf (flow, link) = Format.fprintf ppf "%a%a" Flow.pp flow pp_link link in
    let sep ppf () = Format.fprintf ppf ";" in
    Format.fprintf ppf "Divert{%a;else%a}"
      (Format.pp_print_list ~pp_sep:sep pp_route)
      routes pp_link otherwise
  | Multipath { policy; first; second } ->
    let pp_policy ppf = function
      | `Round_robin -> Format.fprintf ppf "rr"
      | `Random p -> Format.fprintf ppf "p=%g" p
    in
    Format.fprintf ppf "Multipath(%a)%a|%a" pp_policy policy pp_link first pp_link second

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri (fun id n -> Format.fprintf ppf "%d: %a@," id pp_node n) t.nodes;
  let pp_entry ppf (flow, link) = Format.fprintf ppf "entry %a %a@," Flow.pp flow pp_link link in
  List.iter (pp_entry ppf) t.entries;
  let pp_pinger ppf (p : pinger) =
    Format.fprintf ppf "pinger %a %gpps %db %a@," Flow.pp p.flow p.rate_pps p.size_bits pp_link
      p.entry
  in
  List.iter (pp_pinger ppf) t.pingers;
  Format.fprintf ppf "@]"
