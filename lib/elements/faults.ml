module Engine = Utc_sim.Engine
module Rng = Utc_sim.Rng
open Utc_net

type spec =
  | Rate_flap of { station : int option; factor : float }
  | Loss_burst of { node : int option; rate : float }
  | Ack_drop of { p : float }
  | Ack_delay of { seconds : float }
  | Ack_duplicate of { p : float; delay : float }

type fault = { from_ : float; until : float; spec : spec }

type t = {
  engine : Engine.t;
  runtime : Runtime.t;
  rng : Rng.t;
  mutable ack_active : spec list; (* activation order *)
  mutable dropped_acks : int;
}

let describe = function
  | Rate_flap { factor; _ } -> Printf.sprintf "rate_flap x%g" factor
  | Loss_burst { rate; _ } -> Printf.sprintf "loss_burst p=%g" rate
  | Ack_drop { p } -> Printf.sprintf "ack_drop p=%g" p
  | Ack_delay { seconds } -> Printf.sprintf "ack_delay %gs" seconds
  | Ack_duplicate { p; delay } -> Printf.sprintf "ack_duplicate p=%g +%gs" p delay

let first_station compiled =
  match Compiled.station_ids compiled with
  | id :: _ -> id
  | [] -> invalid_arg "Faults: network has no station to flap"

let first_loss compiled =
  let rec scan id =
    if id >= Compiled.node_count compiled then
      invalid_arg "Faults: network has no loss element to burst"
    else begin
      match Compiled.node compiled id with
      | Loss _ -> id
      | Station _ | Delay _ | Jitter _ | Gate _ | Either _ | Divert _ | Multipath _ ->
        scan (id + 1)
    end
  in
  scan 0

(* The node a fault perturbs, or None for acknowledgment-path faults. *)
let target compiled = function
  | Rate_flap { station; _ } -> Some (Option.value station ~default:(first_station compiled))
  | Loss_burst { node; _ } -> Some (Option.value node ~default:(first_loss compiled))
  | Ack_drop _ | Ack_delay _ | Ack_duplicate _ -> None

let same_channel compiled a b =
  match (target compiled a.spec, target compiled b.spec) with
  | Some x, Some y -> x = y
  | None, None -> (
    match (a.spec, b.spec) with
    | Ack_drop _, Ack_drop _ | Ack_delay _, Ack_delay _ | Ack_duplicate _, Ack_duplicate _ ->
      true
    | _ -> false)
  | Some _, None | None, Some _ -> false

let validate compiled schedule =
  let check f =
    if not (0.0 <= f.from_ && f.from_ < f.until) then
      invalid_arg "Faults: fault window must satisfy 0 <= from < until";
    match f.spec with
    | Rate_flap { factor; _ } ->
      if factor <= 0.0 then invalid_arg "Faults: rate flap factor must be positive"
    | Loss_burst { rate; _ } ->
      if rate < 0.0 || rate > 1.0 then invalid_arg "Faults: loss burst rate out of [0, 1]"
    | Ack_drop { p } ->
      if p < 0.0 || p > 1.0 then invalid_arg "Faults: ack drop probability out of [0, 1]"
    | Ack_delay { seconds } ->
      if seconds <= 0.0 then invalid_arg "Faults: ack delay must be positive"
    | Ack_duplicate { p; delay } ->
      if p < 0.0 || p > 1.0 then invalid_arg "Faults: ack duplicate probability out of [0, 1]";
      if delay < 0.0 then invalid_arg "Faults: ack duplicate delay must be non-negative"
  in
  List.iter check schedule;
  (* Two windows steering the same knob must not overlap: the revert of
     one would silently cancel the other. *)
  let rec pairs = function
    | [] -> ()
    | f :: rest ->
      List.iter
        (fun g ->
          if same_channel compiled f g && f.from_ < g.until && g.from_ < f.until then
            invalid_arg "Faults: overlapping windows target the same node or ack channel")
        rest;
      pairs rest
  in
  pairs schedule

let injections_c = Utc_obs.Metrics.counter "elements.faults.injections"

(* Fault windows toggle from engine events (serial), so journaling here
   is deterministic. *)
let record_fault t spec ~active =
  if active then Utc_obs.Metrics.incr injections_c;
  Utc_obs.Sink.record
    ~at:(Engine.now t.engine)
    (Utc_obs.Event.Fault { fault = describe spec; active })

let apply t f =
  let compiled = Runtime.compiled t.runtime in
  record_fault t f.spec ~active:true;
  match f.spec with
  | Rate_flap { station; factor } ->
    let id = Option.value station ~default:(first_station compiled) in
    let base =
      match Compiled.node compiled id with
      | Station { rate_bps; _ } -> rate_bps
      | Delay _ | Loss _ | Jitter _ | Gate _ | Either _ | Divert _ | Multipath _ ->
        invalid_arg "Faults: rate flap target is not a station"
    in
    Runtime.set_rate_override t.runtime ~node_id:id (Some (base *. factor))
  | Loss_burst { node; rate } ->
    let id = Option.value node ~default:(first_loss compiled) in
    Runtime.set_loss_override t.runtime ~node_id:id (Some rate)
  | Ack_drop _ | Ack_delay _ | Ack_duplicate _ -> t.ack_active <- t.ack_active @ [ f.spec ]

let revert t f =
  let compiled = Runtime.compiled t.runtime in
  record_fault t f.spec ~active:false;
  match f.spec with
  | Rate_flap { station; _ } ->
    Runtime.set_rate_override t.runtime
      ~node_id:(Option.value station ~default:(first_station compiled))
      None
  | Loss_burst { node; _ } ->
    Runtime.set_loss_override t.runtime
      ~node_id:(Option.value node ~default:(first_loss compiled))
      None
  | Ack_drop _ | Ack_delay _ | Ack_duplicate _ ->
    t.ack_active <- List.filter (fun s -> s != f.spec) t.ack_active

let arm engine runtime ~seed schedule =
  validate (Runtime.compiled runtime) schedule;
  let t =
    {
      engine;
      runtime;
      rng = Rng.create ~seed;
      ack_active = [];
      dropped_acks = 0;
    }
  in
  List.iter
    (fun f ->
      ignore (Engine.schedule ~prio:Evprio.gate_toggle engine ~at:f.from_ (fun () -> apply t f));
      ignore (Engine.schedule ~prio:Evprio.gate_toggle engine ~at:f.until (fun () -> revert t f)))
    schedule;
  t

let wrap_ack t inner time pkt =
  let dropped =
    List.fold_left
      (fun dropped spec ->
        match spec with
        | Ack_drop { p } -> dropped || Rng.bernoulli t.rng ~p
        | Rate_flap _ | Loss_burst _ | Ack_delay _ | Ack_duplicate _ -> dropped)
      false t.ack_active
  in
  if dropped then t.dropped_acks <- t.dropped_acks + 1
  else begin
    let total_delay =
      List.fold_left
        (fun acc spec ->
          match spec with
          | Ack_delay { seconds } -> acc +. seconds
          | Rate_flap _ | Loss_burst _ | Ack_drop _ | Ack_duplicate _ -> acc)
        0.0 t.ack_active
    in
    let deliver_at extra =
      if extra <= 0.0 then inner time pkt
      else begin
        let prio = Evprio.arrival pkt.Packet.flow in
        ignore
          (Engine.schedule_after ~prio t.engine ~delay:extra (fun () ->
               inner (Engine.now t.engine) pkt))
      end
    in
    List.iter
      (fun spec ->
        match spec with
        | Ack_duplicate { p; delay } ->
          if Rng.bernoulli t.rng ~p then deliver_at (total_delay +. delay)
        | Rate_flap _ | Loss_burst _ | Ack_drop _ | Ack_delay _ -> ())
      t.ack_active;
    deliver_at total_delay
  end

let dropped_acks t = t.dropped_acks
