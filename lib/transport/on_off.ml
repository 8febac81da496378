module Sim = Mcc_engine.Sim

type t = Cbr.t

let start ?(at = 0.) ?until topo ~src ~dst ~rate_bps ~size ~on_period
    ~off_period () =
  if on_period <= 0. || off_period < 0. then invalid_arg "On_off.start";
  let sim = Mcc_net.Topology.sim topo in
  let cbr = Cbr.start ~at topo ~src ~dst ~rate_bps ~size () in
  Cbr.pause cbr;
  let horizon = Option.value until ~default:infinity in
  let rec cycle start_time () =
    if start_time < horizon then begin
      Cbr.resume cbr;
      let off_at = Float.min horizon (start_time +. on_period) in
      Sim.post sim ~at:off_at (fun () -> Cbr.pause cbr);
      let next = start_time +. on_period +. off_period in
      if next < horizon then Sim.post sim ~at:next (cycle next)
    end
  in
  Sim.post sim ~at (cycle at);
  cbr
