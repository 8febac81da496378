module Sim = Mcc_engine.Sim
module Node = Mcc_net.Node
module Packet = Mcc_net.Packet
module Payload = Mcc_net.Payload

type t = { mutable emitting : bool; mutable stopped : bool; task : Sim.handle }

let start ?(at = 0.) topo ~src ~dst ~rate_bps ~size () =
  if rate_bps <= 0. then invalid_arg "Cbr.start: rate_bps <= 0";
  let sim = Mcc_net.Topology.sim topo in
  let period = float_of_int (size * 8) /. rate_bps in
  let rec t =
    lazy
      {
        emitting = true;
        stopped = false;
        task =
          Sim.every sim ~start:at ~period (fun () ->
              let self = Lazy.force t in
              if self.emitting && not self.stopped then
                Node.originate src
                  (Packet.make ~src:src.Node.id ~dst ~size Payload.Raw));
      }
  in
  Lazy.force t

let pause t = t.emitting <- false
let resume t = t.emitting <- true

let stop t =
  t.stopped <- true;
  Sim.cancel t.task
