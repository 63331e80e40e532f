type phase =
  | Healthy
  | Suspect
  | Probing

let phase_equal a b =
  match (a, b) with
  | Healthy, Healthy | Suspect, Suspect | Probing, Probing -> true
  | (Healthy | Suspect | Probing), _ -> false

let pp_phase ppf p =
  let text =
    match p with
    | Healthy -> "healthy"
    | Suspect -> "suspect"
    | Probing -> "probing"
  in
  Format.pp_print_string ppf text

type config = unit

let default_config = ()

(* Rejections in a row before Suspect, and before a reseed fires. *)
let suspect_after = 2
let reseed_after = 4

(* Probing pace: it starts at [probe_interval], each rejection multiplies
   it by [probe_backoff] up to [probe_interval_max], and each consistent
   update multiplies it by [probe_decay]. *)
let probe_interval = 1.0
let probe_backoff = 2.0
let probe_decay = 0.8
let probe_interval_max = 16.0

(* Probing ends after [healthy_after] consistent updates in a row with
   the top hypothesis at [reconcentrate_mass] or more. *)
let reconcentrate_mass = 0.5
let healthy_after = 5

type event =
  | Rejected
  | Accepted of { top_weight : float }

type action =
  | No_action
  | Fire_reseed

type t = {
  phase : phase;
  streak : int;
  calm : int;
  interval : float;
  reseeds : int;
}

let initial () = { phase = Healthy; streak = 0; calm = 0; interval = probe_interval; reseeds = 0 }

let transitions_c = Utc_obs.Metrics.counter "core.recovery.transitions"

(* Journal a phase change. [step] stays pure; callers that know the
   sim-time opt in with [~at] and the event is a function of the
   transition alone. *)
let record_transition ~at ~from_ ~to_ ~reseeds =
  Utc_obs.Metrics.incr transitions_c;
  Utc_obs.Sink.record ~at
    (Utc_obs.Event.Recovery_transition
       {
         from_ = Format.asprintf "%a" pp_phase from_;
         to_ = Format.asprintf "%a" pp_phase to_;
         reseeds;
       })

let step ?at t event =
  Utc_obs.Metrics.span
    ?now:(Option.map (fun a () -> a) at)
    ~name:"recovery.step"
  @@ fun () ->
  let result =
    match event with
  | Rejected ->
    let streak = t.streak + 1 in
    if streak >= reseed_after then begin
      (* The ladder's bound: the streak never exceeds [reseed_after]
         before a reseed fires. Re-entering Probing from Probing backs
         the pace off multiplicatively. *)
      let interval =
        match t.phase with
        | Probing -> Float.min (t.interval *. probe_backoff) probe_interval_max
        | Healthy | Suspect -> probe_interval
      in
      ({ phase = Probing; streak = 0; calm = 0; interval; reseeds = t.reseeds + 1 }, Fire_reseed)
    end
    else begin
      let phase =
        match t.phase with
        | Probing -> Probing
        | Healthy | Suspect -> if streak >= suspect_after then Suspect else t.phase
      in
      let interval =
        match t.phase with
        | Probing -> Float.min (t.interval *. probe_backoff) probe_interval_max
        | Healthy | Suspect -> t.interval
      in
      ({ t with phase; streak; calm = 0; interval }, No_action)
    end
  | Accepted { top_weight } -> (
    match t.phase with
    | Healthy -> ({ t with streak = 0; calm = 0 }, No_action)
    | Suspect ->
      (* One consistent update clears suspicion: the model explains
         reality again and the posterior was never replaced. *)
      ({ t with phase = Healthy; streak = 0; calm = 0 }, No_action)
    | Probing ->
      let calm = t.calm + 1 in
      let interval = Float.max (t.interval *. probe_decay) 1e-3 in
      if calm >= healthy_after && top_weight >= reconcentrate_mass then
        ( {
            phase = Healthy;
            streak = 0;
            calm = 0;
            interval = probe_interval;
            reseeds = t.reseeds;
          },
          No_action )
      else ({ t with streak = 0; calm; interval }, No_action))
  in
  (match at with
  | Some at when not (phase_equal t.phase (fst result).phase) ->
    record_transition ~at ~from_:t.phase ~to_:(fst result).phase ~reseeds:(fst result).reseeds
  | Some _ | None -> ());
  result

let phase t = t.phase
let interval t = t.interval
let reseeds t = t.reseeds
