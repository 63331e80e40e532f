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
  entries : link option array;
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
    (* Validation gave every source flow a rank, so the table covers the
       endpoints' ranks and nothing else. *)
    let table_size =
      List.fold_left
        (fun size source ->
          match source with
          | Topology.Endpoint { flow; _ } -> Int.max size (Flow.rank flow + 1)
          | Topology.Pinger _ -> size)
        0 topology.Topology.sources
    in
    let entries = Array.make table_size None in
    let compile_source pingers source =
      match source with
      | Topology.Endpoint { flow; access } ->
        entries.(Flow.rank flow) <- Some (compile_element builder access shared_entry);
        pingers
      | Topology.Pinger { flow; rate_pps; size_bits; access } ->
        let entry = compile_element builder access shared_entry in
        { flow; rate_pps; size_bits; entry } :: pingers
    in
    let pingers = List.fold_left compile_source [] topology.Topology.sources in
    let nodes = Array.of_list (List.rev builder.acc) in
    Ok { nodes; entries; pingers = List.rev pingers }

let compile_exn topology =
  match compile topology with
  | Ok t -> t
  | Error msg -> invalid_arg ("Compiled.compile: " ^ msg)

let entry t flow =
  let rank = Flow.rank flow in
  if rank < 0 || rank >= Array.length t.entries then raise Not_found
  else
    match t.entries.(rank) with
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
