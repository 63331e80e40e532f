type t =
  | Packet_send of { seq : int; bits : int }
  | Packet_ack of { seq : int }
  | Packet_drop of { node : string; reason : string; seq : int }
  | Timeout of { seq : int }
  | Belief_update of { size : int; entropy : float; ess : float; status : string }
  | Belief_reseed of { size : int; keep : int }
  | Planner_decide of { action : string; delay : float; margin : float; candidates : int }
  | Recovery_transition of { from_ : string; to_ : string; reseeds : int }
  | Fault of { fault : string; active : bool }
  | Mark of { name : string; value : float }
  | Span_begin of { path : string }
  | Span_end of { path : string }

let kind = function
  | Packet_send _ -> "packet_send"
  | Packet_ack _ -> "packet_ack"
  | Packet_drop _ -> "packet_drop"
  | Timeout _ -> "timeout"
  | Belief_update _ -> "belief_update"
  | Belief_reseed _ -> "belief_reseed"
  | Planner_decide _ -> "planner_decide"
  | Recovery_transition _ -> "recovery_transition"
  | Fault _ -> "fault"
  | Mark _ -> "mark"
  | Span_begin _ -> "span_begin"
  | Span_end _ -> "span_end"

let fields t : (string * Obs_json.value) list =
  let open Obs_json in
  match t with
  | Packet_send { seq; bits } -> [ ("seq", Int seq); ("bits", Int bits) ]
  | Packet_ack { seq } -> [ ("seq", Int seq) ]
  | Packet_drop { node; reason; seq } ->
    [ ("node", Str node); ("reason", Str reason); ("seq", Int seq) ]
  | Timeout { seq } -> [ ("seq", Int seq) ]
  | Belief_update { size; entropy; ess; status } ->
    [ ("size", Int size); ("entropy", Float entropy); ("ess", Float ess); ("status", Str status) ]
  | Belief_reseed { size; keep } -> [ ("size", Int size); ("keep", Int keep) ]
  | Planner_decide { action; delay; margin; candidates } ->
    [
      ("action", Str action);
      ("delay", Float delay);
      ("margin", Float margin);
      ("candidates", Int candidates);
    ]
  | Recovery_transition { from_; to_; reseeds } ->
    [ ("from", Str from_); ("to", Str to_); ("reseeds", Int reseeds) ]
  | Fault { fault; active } -> [ ("fault", Str fault); ("active", Bool active) ]
  | Mark { name; value } -> [ ("name", Str name); ("value", Float value) ]
  | Span_begin { path } -> [ ("path", Str path) ]
  | Span_end { path } -> [ ("path", Str path) ]
