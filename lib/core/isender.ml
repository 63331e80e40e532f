open Utc_net
module Engine = Utc_sim.Engine
module Tb = Utc_sim.Timebase
module Belief = Utc_inference.Belief

let src = Logs.Src.create "utc.isender" ~doc:"Model-based transmission controller"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  planner : Planner.config;
  recovery : Recovery.config option;
}

let default_config = { planner = Planner.default_config; recovery = None }

(* Planned sleeps are clamped to [min_sleep, max_sleep]; one wakeup
   instant sends at most [burst_cap] packets, a safety valve against a
   degenerate plan loop, then sleeps [min_sleep]. *)
let min_sleep = 0.001
let max_sleep = 60.0
let burst_cap = 64

type 'p decider =
  'p Belief.t ->
  now:Tb.t ->
  pending:(Tb.t * Packet.t) list ->
  make_packet:(Tb.t -> Packet.t) ->
  Planner.decision * Planner.evaluation list

type 'p t = {
  engine : Engine.t;
  config : config;
  decide : 'p decider;
  inject : Packet.t -> unit;
  reseed_fn : (now:Tb.t -> 'p Belief.t -> 'p Belief.t) option;
  mutable ladder : Recovery.t;
  mutable belief : 'p Belief.t;
  mutable pending_sends : (Tb.t * Packet.t) list; (* newest first *)
  mutable pending_acks : Belief.ack list; (* newest first *)
  mutable next_seq : int;
  mutable timer : Engine.handle option;
  mutable wakeup_at : Tb.t option; (* immediate wakeup already queued for this instant *)
  mutable sent : (Tb.t * int) list; (* newest first *)
  mutable acked : (Tb.t * int) list; (* newest first *)
  mutable sent_n : int;
  mutable rejected : int;
  mutable streak : int; (* consecutive informative rejections; a fired reseed clears it *)
  mutable worst_streak : int;
  mutable stale_acks : int;
  mutable ack_floor : int; (* ACKs below this seq predate the last reseed *)
  mutable next_probe_at : Tb.t;
  mutable last_status : Belief.update_status;
  mutable transitions : (Tb.t * Recovery.phase * Recovery.phase) list; (* newest first *)
  mutable hooks : (Tb.t -> 'p t -> unit) list;
  mutable running : bool;
}

(* One gross-utility cache per sender instance: [create] applies
   [default_decider config] once, so the cache lives exactly as long as
   the sender and is never shared across senders. *)
let default_decider config =
  let cache = Planner.make_cache () in
  fun belief ~now ~pending ~make_packet ->
    Planner.decide ~cache config.planner ~belief ~now ~pending ~make_packet

let create ?decide ?reseed engine config ~belief ~inject =
  {
    engine;
    config;
    decide = Option.value decide ~default:(default_decider config);
    inject;
    reseed_fn = reseed;
    ladder = Recovery.initial ();
    belief;
    pending_sends = [];
    pending_acks = [];
    next_seq = 0;
    timer = None;
    wakeup_at = None;
    sent = [];
    acked = [];
    sent_n = 0;
    rejected = 0;
    streak = 0;
    worst_streak = 0;
    stale_acks = 0;
    ack_floor = 0;
    next_probe_at = Tb.zero;
    last_status = Belief.Consistent;
    transitions = [];
    hooks = [];
    running = false;
  }

let cancel_timer t =
  match t.timer with
  | None -> ()
  | Some handle ->
    Engine.cancel handle;
    t.timer <- None

let sends_c = Utc_obs.Metrics.counter "core.isender.sends"
let acks_c = Utc_obs.Metrics.counter "core.isender.acks"
let wakeups_c = Utc_obs.Metrics.counter "core.isender.wakeups"

let transmit t now =
  let pkt = Packet.make ~flow:Flow.Primary ~seq:t.next_seq ~sent_at:now () in
  t.next_seq <- t.next_seq + 1;
  t.pending_sends <- (now, pkt) :: t.pending_sends;
  t.sent <- (now, pkt.Packet.seq) :: t.sent;
  t.sent_n <- t.sent_n + 1;
  Utc_obs.Metrics.incr sends_c;
  if Utc_obs.Sink.enabled () then
    Utc_obs.Sink.record
      ~flow:(Flow.to_string pkt.Packet.flow)
      ~at:now
      (Utc_obs.Event.Packet_send { seq = pkt.Packet.seq; bits = pkt.Packet.bits });
  Log.debug (fun m -> m "t=%a send seq=%d" Tb.pp now pkt.Packet.seq);
  t.inject pkt

(* Drive the recovery ladder with this wakeup's filtering outcome; fire a
   reseed when the ladder says so. Returns unit — the caller re-reads the
   ladder phase when acting. *)
let drive_recovery t now status =
  match t.config.recovery with
  | None -> ()
  | Some _ ->
    let event =
      match status with
      | Belief.All_rejected -> Recovery.Rejected
      | Belief.Consistent ->
        let top_weight =
          match Belief.top t.belief ~n:1 with
          | [] -> 0.0
          | h :: _ -> exp h.Belief.logw
        in
        Recovery.Accepted { top_weight }
    in
    let before = Recovery.phase t.ladder in
    let ladder, action = Recovery.step ~at:now t.ladder event in
    t.ladder <- ladder;
    (match action with
    | Recovery.No_action -> ()
    | Recovery.Fire_reseed ->
      t.streak <- 0;
      (match t.reseed_fn with
      | None -> Log.warn (fun m -> m "t=%a reseed fired but no reseed callback" Tb.pp now)
      | Some f ->
        t.belief <- f ~now t.belief;
        (* ACKs of packets sent against the dead posterior would poison
           the fresh hypotheses (which know nothing of those sends);
           watermark them out of future updates. *)
        t.ack_floor <- t.next_seq;
        Log.info (fun m ->
            m "t=%a posterior reseeded (%d hypotheses, ack floor %d)" Tb.pp now
              (Belief.size t.belief) t.ack_floor));
      (* Quiet period: the first probe waits one interval so in-flight
         pre-reseed traffic drains before fresh timings are scored. *)
      t.next_probe_at <- Tb.add now (Recovery.interval ladder));
    let after = Recovery.phase ladder in
    if not (Recovery.phase_equal before after) then begin
      t.transitions <- (now, before, after) :: t.transitions;
      Log.info (fun m ->
          m "t=%a recovery %a -> %a" Tb.pp now Recovery.pp_phase before Recovery.pp_phase after)
    end

let probing t =
  match t.config.recovery with
  | None -> false
  | Some _ -> Recovery.phase_equal (Recovery.phase t.ladder) Recovery.Probing

let rec wakeup t () =
  if not t.running then ()
  else begin
  (* One span per wakeup: the per-decision cost the paper's §3.3 argues
     must stay cheap. Belief/recovery/planner phases nest inside it. *)
  Utc_obs.Metrics.span ~name:"wakeup" ~now:(fun () -> Engine.now t.engine) @@ fun () ->
  let now = Engine.now t.engine in
  t.wakeup_at <- None;
  cancel_timer t;
  Utc_obs.Metrics.incr wakeups_c;
  (* Job 1: filter the belief with everything seen since the last wakeup. *)
  let sends = List.rev t.pending_sends in
  let acks_all = List.rev t.pending_acks in
  t.pending_sends <- [];
  t.pending_acks <- [];
  let acks =
    if t.ack_floor = 0 then acks_all
    else begin
      let fresh, stale =
        List.partition (fun (a : Belief.ack) -> a.Belief.seq >= t.ack_floor) acks_all
      in
      t.stale_acks <- t.stale_acks + List.length stale;
      fresh
    end
  in
  let belief, status =
    Belief.update t.belief ~sends ~acks ~now ~now_prio:Evprio.endpoint_wakeup ()
  in
  t.belief <- belief;
  t.last_status <- status;
  let () =
    match status with
    | Belief.Consistent -> ()
    | Belief.All_rejected ->
      t.rejected <- t.rejected + 1;
      Log.warn (fun m -> m "t=%a all configurations rejected; advanced unconditioned" Tb.pp now)
  in
  (* A timer wakeup with nothing to condition on is vacuously Consistent;
     it must neither reset the rejection streak nor count as calm, or a
     persistent fault hides behind every interleaved timer tick. A
     rejection is always informative (it takes evidence to reject). *)
  let informative =
    (match acks with
    | _ :: _ -> true
    | [] -> false)
    ||
    match status with
    | Belief.All_rejected -> true
    | Belief.Consistent -> false
  in
  if informative then begin
    (match status with
    | Belief.All_rejected ->
      t.streak <- t.streak + 1;
      if t.streak > t.worst_streak then t.worst_streak <- t.streak
    | Belief.Consistent -> t.streak <- 0);
    drive_recovery t now status
  end;
  (* Job 2: act to maximize expected utility, possibly several sends in a
     burst, then sleep. While Probing the planner is not trusted: pace
     conservatively, one packet per probe interval. *)
  let rec act burst =
    if burst >= burst_cap then schedule_sleep t now min_sleep
    else begin
      let pending = List.rev t.pending_sends in
      let make_packet at = Packet.make ~flow:Flow.Primary ~seq:t.next_seq ~sent_at:at () in
      match fst (t.decide t.belief ~now ~pending ~make_packet) with
      | Planner.Send_now ->
        transmit t now;
        act (burst + 1)
      | Planner.Sleep d -> schedule_sleep t now d
    end
  in
  if probing t then begin
    if Tb.compare now t.next_probe_at >= 0 then begin
      transmit t now;
      t.next_probe_at <- Tb.add now (Recovery.interval t.ladder);
      schedule_sleep t now (Recovery.interval t.ladder)
    end
    else schedule_sleep t now (Tb.sub t.next_probe_at now)
  end
  else act 0;
  List.iter (fun f -> f now t) t.hooks
  end

and schedule_sleep t now d =
  let d = Float.max min_sleep (Float.min d max_sleep) in
  let at = Tb.add now d in
  cancel_timer t;
  t.timer <- Some (Engine.schedule ~prio:Evprio.endpoint_wakeup t.engine ~at (wakeup t))

let start t =
  let now = Engine.now t.engine in
  t.running <- true;
  t.wakeup_at <- Some now;
  ignore (Engine.schedule ~prio:Evprio.endpoint_wakeup t.engine ~at:now (wakeup t))

let on_ack t pkt =
  if t.running then begin
    let now = Engine.now t.engine in
    t.pending_acks <- { Belief.seq = pkt.Packet.seq; time = now } :: t.pending_acks;
    t.acked <- (now, pkt.Packet.seq) :: t.acked;
    Utc_obs.Metrics.incr acks_c;
    if Utc_obs.Sink.enabled () then
      Utc_obs.Sink.record
        ~flow:(Flow.to_string pkt.Packet.flow)
        ~at:now
        (Utc_obs.Event.Packet_ack { seq = pkt.Packet.seq });
    (* Batch all same-instant ACKs into one wakeup, after every network
       event of this instant. *)
    match t.wakeup_at with
    | Some at when Tb.compare at now = 0 -> ()
    | Some _ | None ->
      t.wakeup_at <- Some now;
      ignore (Engine.schedule ~prio:Evprio.endpoint_wakeup t.engine ~at:now (wakeup t))
  end

let stop t =
  t.running <- false;
  cancel_timer t;
  t.wakeup_at <- None

let belief t = t.belief
let sent t = List.rev t.sent
let acked t = List.rev t.acked
let sent_count t = t.sent_n
let rejected_updates t = t.rejected
let stale_acks t = t.stale_acks
let last_update_status t = t.last_status
let reseeds t = Recovery.reseeds t.ladder
let max_rejection_streak t = t.worst_streak
let transitions t = List.rev t.transitions
let on_wakeup t f = t.hooks <- f :: t.hooks
