(* A symptom is present when [ess / size] is below [ess_ratio_floor],
   when the heaviest hypothesis holds [top_weight_ceiling] or more, or
   after [streak_limit] consecutive rejected updates. *)
let ess_ratio_floor = 0.1
let top_weight_ceiling = 0.999
let streak_limit = 3

type signal =
  | Rejection_streak
  | Ess_collapse
  | Weight_concentration

let pp_signal ppf s =
  let text =
    match s with
    | Rejection_streak -> "rejection_streak"
    | Ess_collapse -> "ess_collapse"
    | Weight_concentration -> "weight_concentration"
  in
  Format.pp_print_string ppf text

type t = {
  mutable streak : int;
  mutable worst_streak : int;
}

let create () = { streak = 0; worst_streak = 0 }

(* [top ~n:1], not [support]: the store keeps hypotheses heaviest-first,
   and this runs on every informative wakeup — no reason to materialize
   the whole set. *)
let top_weight belief =
  match Belief.top belief ~n:1 with
  | [] -> 0.0
  | h :: _ -> exp h.Belief.logw

let ess_ratio belief =
  let size = Belief.size belief in
  if size = 0 then 0.0 else Belief.ess belief /. float_of_int size

let signals_c = Utc_obs.Metrics.counter "inference.degeneracy.signals"

let observe t belief (status : Belief.update_status) =
  (match status with
  | Belief.All_rejected ->
    t.streak <- t.streak + 1;
    if t.streak > t.worst_streak then t.worst_streak <- t.streak
  | Belief.Consistent -> t.streak <- 0);
  let signals = if t.streak >= streak_limit then [ Rejection_streak ] else [] in
  let signals =
    if Belief.size belief > 1 && ess_ratio belief < ess_ratio_floor then
      Ess_collapse :: signals
    else signals
  in
  let signals =
    if Belief.size belief > 0 && top_weight belief >= top_weight_ceiling then
      Weight_concentration :: signals
    else signals
  in
  Utc_obs.Metrics.add signals_c (List.length signals);
  if Utc_obs.Sink.enabled () then
    List.iter
      (fun s ->
        Utc_obs.Sink.record ~at:(Belief.now belief)
          (Utc_obs.Event.Degeneracy_signal
             { signal = Format.asprintf "%a" pp_signal s; streak = t.streak }))
      signals;
  signals

let streak t = t.streak
let worst_streak t = t.worst_streak
let reset t = t.streak <- 0
