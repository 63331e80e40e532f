module Isender = Utc_core.Isender
module Receiver = Utc_core.Receiver
module Runtime = Utc_elements.Runtime

type t = {
  engine : Utc_sim.Engine.t;
  receiver : Receiver.t;
  compiled : Utc_net.Compiled.t;
  runtime : Runtime.t;
}

let create ~seed truth =
  let engine = Utc_sim.Engine.create ~seed () in
  let receiver = Receiver.create engine in
  let compiled = Utc_net.Compiled.compile_exn truth in
  let runtime = Runtime.build engine compiled (Receiver.callbacks receiver) in
  { engine; receiver; compiled; runtime }

let isender ?decide ?reseed t config ~belief =
  let flow = Utc_net.Flow.Primary in
  let sender =
    Isender.create ?decide ?reseed t.engine config ~belief ~inject:(fun pkt ->
        Runtime.inject t.runtime flow pkt)
  in
  Receiver.subscribe t.receiver flow (fun _ pkt -> Isender.on_ack sender pkt);
  sender

let tcp t config =
  let flow = config.Utc_tcp.Sender.flow in
  let sender =
    Utc_tcp.Sender.create t.engine config ~inject:(fun pkt -> Runtime.inject t.runtime flow pkt)
  in
  Receiver.subscribe t.receiver flow (fun _ pkt -> Utc_tcp.Sender.on_delivery sender pkt);
  sender
