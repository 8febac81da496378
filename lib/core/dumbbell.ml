module Topology = Mcc_net.Topology
module Node = Mcc_net.Node
module Link = Mcc_net.Link

type t = {
  topo : Topology.t;
  left : Node.t;
  right : Node.t;
  forward : Link.t;
  backward : Link.t;
  bottleneck_rate_bps : float;
  bottleneck_delay_s : float;
}

let create ?(bottleneck_delay_s = Defaults.bottleneck_delay_s) ?(ecn = false)
    ?packet_buffer sim ~bottleneck_rate_bps () =
  let topo = Topology.create sim in
  let left = Topology.add_node topo Node.Core_router in
  let right = Topology.add_node topo Node.Edge_router in
  let rtt =
    Defaults.path_rtt_s ~bottleneck_delay_s
      ~access_delay_s:Defaults.access_delay_s
  in
  let buffer = Defaults.buffer_bytes ~bottleneck_rate_bps ~rtt_s:rtt in
  let ecn_threshold_bytes = if ecn then Some (buffer / 2) else None in
  let buffer_packets =
    if packet_buffer = Some true then
      Some (max 2 (buffer / Defaults.packet_size))
    else None
  in
  let forward, backward =
    Topology.connect topo left right ~rate_bps:bottleneck_rate_bps
      ~delay_s:bottleneck_delay_s ~buffer_bytes:buffer ?buffer_packets
      ?ecn_threshold_bytes ()
  in
  { topo; left; right; forward; backward; bottleneck_rate_bps; bottleneck_delay_s }

let access_buffer t rate_bps =
  let rtt =
    Defaults.path_rtt_s ~bottleneck_delay_s:t.bottleneck_delay_s
      ~access_delay_s:Defaults.access_delay_s
  in
  Defaults.buffer_bytes ~bottleneck_rate_bps:rate_bps ~rtt_s:rtt

let add_sender t =
  let host = Topology.add_node t.topo Node.Host in
  let _ =
    Topology.connect t.topo host t.left ~rate_bps:Defaults.access_rate_bps
      ~delay_s:Defaults.access_delay_s
      ~buffer_bytes:(access_buffer t Defaults.access_rate_bps) ()
  in
  host

let add_receiver ?(delay_s = Defaults.access_delay_s)
    ?(rate_bps = Defaults.access_rate_bps) t =
  let host = Topology.add_node t.topo Node.Host in
  let _ =
    Topology.connect t.topo host t.right ~rate_bps ~delay_s
      ~buffer_bytes:(access_buffer t rate_bps) ()
  in
  host

let add_receiver_lan t ~hosts =
  let lan = Topology.add_node t.topo Node.Lan in
  let buffer = access_buffer t Defaults.access_rate_bps in
  let _ =
    Topology.connect t.topo lan t.right ~rate_bps:Defaults.access_rate_bps
      ~delay_s:Defaults.access_delay_s ~buffer_bytes:buffer ()
  in
  let members =
    List.init hosts (fun _ ->
        let host = Topology.add_node t.topo Node.Host in
        let _ =
          Topology.connect t.topo host lan ~rate_bps:Defaults.access_rate_bps
            ~delay_s:0.0001 ~buffer_bytes:buffer ()
        in
        host)
  in
  (lan, members)

let finalize t = Topology.compute_routes t.topo
