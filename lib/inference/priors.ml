open Utc_net

type fig2_params = {
  link_bps : float;
  pinger_pps : float;
  loss_rate : float;
  buffer_bits : int;
  initial_packets : int;
  mean_time_to_switch : float;
  gate_on : bool;
}

let fig2_topology p =
  Topology.figure2 ~link_bps:p.link_bps ~buffer_bits:p.buffer_bits ~loss_rate:p.loss_rate
    ~pinger_pps:p.pinger_pps
    ~cross_gate:
      (Topology.intermittent ~initially_connected:p.gate_on
         ~mean_time_to_switch:p.mean_time_to_switch ())

let hypotheses ?(config = Utc_model.Forward.default_config) ?(queued = fun _ -> 0) model prior =
  List.map
    (fun (p, w) ->
      let compiled = Compiled.compile_exn (model p) in
      let prepared = Utc_model.Forward.prepare config compiled in
      let prefill =
        match queued p with
        | 0 -> []
        | n ->
          let station =
            match Compiled.station_ids compiled with
            | [ id ] -> id
            | ids ->
              invalid_arg
                (Printf.sprintf "Priors.hypotheses: %d queued packets need one station, not %d" n
                   (List.length ids))
          in
          let packet i =
            Packet.make ~flow:Flow.Cross ~seq:(-1 - i) ~sent_at:Utc_sim.Timebase.zero ()
          in
          [ (station, List.init n packet) ]
      in
      let state =
        Utc_model.Mstate.initial ~prefill ~epoch:config.Utc_model.Forward.epoch compiled
      in
      (p, w, prepared, state))
    prior

let grid_float ~lo ~hi ~step =
  assert (step > 0.0 && hi >= lo);
  let count = int_of_float (Float.round ((hi -. lo) /. step)) in
  List.init (count + 1) (fun i -> lo +. (float_of_int i *. step))

let grid_int ~lo ~hi ~step =
  assert (step > 0 && hi >= lo);
  let count = (hi - lo) / step in
  List.init (count + 1) (fun i -> lo + (i * step))

let uniform values =
  let n = List.length values in
  assert (n > 0);
  let w = 1.0 /. float_of_int n in
  List.map (fun v -> (v, w)) values

let packet_bits = float_of_int Packet.default_bits

let rate_ratios = [ 0.4; 0.5; 0.6; 0.7 ]

let paper_prior () =
  let speeds = grid_float ~lo:10_000.0 ~hi:16_000.0 ~step:1_000.0 in
  let losses = grid_float ~lo:0.0 ~hi:0.2 ~step:0.05 in
  let buffers = grid_int ~lo:72_000 ~hi:108_000 ~step:12_000 in
  let params =
    List.concat_map
      (fun link_bps ->
        List.concat_map
          (fun ratio ->
            List.concat_map
              (fun loss_rate ->
                List.concat_map
                  (fun buffer_bits ->
                    let max_fill = buffer_bits / Packet.default_bits in
                    List.map
                      (fun initial_packets ->
                        {
                          link_bps;
                          pinger_pps = ratio *. link_bps /. packet_bits;
                          loss_rate;
                          buffer_bits;
                          initial_packets;
                          mean_time_to_switch = 100.0;
                          gate_on = true;
                        })
                      (grid_int ~lo:0 ~hi:max_fill ~step:1))
                  buffers)
              losses)
          rate_ratios)
      speeds
  in
  uniform params

let paper_truth =
  {
    link_bps = 12_000.0;
    pinger_pps = 0.7 *. 12_000.0 /. packet_bits;
    loss_rate = 0.2;
    buffer_bits = 96_000;
    initial_packets = 0;
    mean_time_to_switch = 100.0;
    gate_on = true;
  }

let paper_truth_topology =
  Topology.figure2 ~link_bps:paper_truth.link_bps ~buffer_bits:paper_truth.buffer_bits
    ~loss_rate:paper_truth.loss_rate ~pinger_pps:paper_truth.pinger_pps
    ~cross_gate:(Topology.squarewave ~interval:100.0 ())

let seeds ~config prior =
  hypotheses ~config ~queued:(fun p -> p.initial_packets) fig2_topology prior
