type t = {
  cwnd : unit -> float;
  ssthresh : unit -> float;
  on_ack : newly_acked:int -> rtt:float -> unit;
  on_loss_event : unit -> unit;
  on_timeout : unit -> unit;
}

let initial_cwnd = 1.0
let min_cwnd = 1.0

(* Vegas's target queue: between 2 and 4 packets. *)
let vegas_alpha = 2.0
let vegas_beta = 4.0

(* Shared AIMD core: slow start below ssthresh (+1 per acked packet),
   congestion avoidance above (+1/cwnd per acked packet). *)
let aimd_growth cwnd ssthresh ~newly_acked =
  let n = float_of_int newly_acked in
  if !cwnd < !ssthresh then cwnd := !cwnd +. n
  else cwnd := !cwnd +. (n /. !cwnd)

let tahoe () =
  let cwnd = ref initial_cwnd in
  let ssthresh = ref infinity in
  let collapse () =
    ssthresh := Float.max (!cwnd /. 2.0) 2.0;
    cwnd := min_cwnd
  in
  {
    cwnd = (fun () -> !cwnd);
    ssthresh = (fun () -> !ssthresh);
    on_ack = (fun ~newly_acked ~rtt:_ -> aimd_growth cwnd ssthresh ~newly_acked);
    on_loss_event = collapse;
    on_timeout = collapse;
  }

let reno () =
  let cwnd = ref initial_cwnd in
  let ssthresh = ref infinity in
  {
    cwnd = (fun () -> !cwnd);
    ssthresh = (fun () -> !ssthresh);
    on_ack = (fun ~newly_acked ~rtt:_ -> aimd_growth cwnd ssthresh ~newly_acked);
    on_loss_event =
      (fun () ->
        ssthresh := Float.max (!cwnd /. 2.0) 2.0;
        cwnd := !ssthresh);
    on_timeout =
      (fun () ->
        ssthresh := Float.max (!cwnd /. 2.0) 2.0;
        cwnd := min_cwnd);
  }

let vegas () =
  let cwnd = ref initial_cwnd in
  let ssthresh = ref infinity in
  let base_rtt = ref infinity in
  let on_ack ~newly_acked ~rtt =
    if rtt > 0.0 then base_rtt := Float.min !base_rtt rtt;
    let n = float_of_int newly_acked in
    if !base_rtt = infinity || rtt <= 0.0 then aimd_growth cwnd ssthresh ~newly_acked
    else begin
      (* diff: packets held in queues = cwnd * (1 - baseRTT/rtt). *)
      let diff = !cwnd *. (1.0 -. (!base_rtt /. rtt)) in
      if !cwnd < !ssthresh && diff < 1.0 then cwnd := !cwnd +. n
      else if diff < vegas_alpha then cwnd := !cwnd +. (n /. !cwnd)
      else if diff > vegas_beta then cwnd := Float.max min_cwnd (!cwnd -. (n /. !cwnd))
    end
  in
  {
    cwnd = (fun () -> !cwnd);
    ssthresh = (fun () -> !ssthresh);
    on_ack;
    on_loss_event =
      (fun () ->
        ssthresh := Float.max (!cwnd /. 2.0) 2.0;
        cwnd := !ssthresh);
    on_timeout =
      (fun () ->
        ssthresh := Float.max (!cwnd /. 2.0) 2.0;
        cwnd := min_cwnd);
  }
