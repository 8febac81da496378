module Sim = Mcc_engine.Sim
module Topology = Mcc_net.Topology
module Node = Mcc_net.Node
module Packet = Mcc_net.Packet
module Payload = Mcc_net.Payload
module Prng = Mcc_util.Prng
module Meter = Mcc_util.Meter
module Spec = Mcc_core.Spec
module Defaults = Mcc_core.Defaults
module On_off = Mcc_transport.On_off
module Tcp = Mcc_transport.Tcp

type installed = { delivered : Meter.t list }

(* The host one hop behind [host]'s access link: where a dedicated
   cross-traffic source attaches so background flows share the core
   with the session without riding the multicast sender's own access
   link. *)
let access_router topo (host : Node.t) =
  match host.Node.links with
  | l :: _ -> Topology.node topo l.Mcc_net.Link.dst
  | [] -> invalid_arg "Traffic.access_router: host has no links"

let nth_cyclic xs i = List.nth xs (i mod List.length xs)

let install (built : Topo_gen.built) ~prng ~duration
    ~(specs : Spec.traffic_spec list) =
  if specs = [] then { delivered = [] }
  else begin
    let topo = built.Topo_gen.topo in
    let sim = Topology.sim topo in
    let src_router = access_router topo built.Topo_gen.sender in
    let web_meter = Meter.create () in
    let web_metered = Hashtbl.create 8 in
    (* Claim raw (CBR) unicast payloads on a destination host and feed
       the shared web meter; TCP and protocol payloads fall through to
       their own handlers. *)
    let meter_web_at (host : Node.t) =
      if not (Hashtbl.mem web_metered host.Node.id) then begin
        Hashtbl.replace web_metered host.Node.id ();
        Node.add_unicast_handler host (fun pkt ->
            match pkt.Packet.payload with
            | Payload.Raw ->
                Meter.record web_meter ~time:(Sim.now sim)
                  ~bytes:pkt.Packet.size;
                true
            | _ -> false)
      end
    in
    let tcp_meters = ref [] in
    let next_tcp_flow = ref 0 in
    let web_flows = ref 0 in
    List.iter
      (fun (spec : Spec.traffic_spec) ->
        match spec with
        | Spec.Web_mix { flows; rate_bps; mean_on; mean_off } ->
            for _ = 1 to flows do
              let i = !web_flows in
              incr web_flows;
              let src = Topology.add_node topo Node.Host in
              Topo_gen.access_link topo src_router src;
              let dst_host = nth_cyclic built.Topo_gen.pool i in
              meter_web_at dst_host;
              (* Per-flow on/off periods drawn once from the seed
                 stream: a fixed-period approximation of the web mix's
                 heavy-tailed think times, deterministic per seed. *)
              let on_period = Float.max 0.1 (Prng.exponential prng ~mean:mean_on) in
              let off_period =
                Float.max 0.1 (Prng.exponential prng ~mean:mean_off)
              in
              let at = Prng.float prng *. Float.min mean_off duration in
              ignore
                (On_off.start ~at ~until:duration topo ~src
                   ~dst:(Packet.Unicast dst_host.Node.id)
                   ~rate_bps:(rate_bps /. float_of_int flows)
                   ~size:Defaults.packet_size ~on_period ~off_period ())
            done
        | Spec.Tcp_flows { flows } ->
            for _ = 1 to flows do
              let i = !next_tcp_flow in
              incr next_tcp_flow;
              let src = Topology.add_node topo Node.Host in
              Topo_gen.access_link topo src_router src;
              let dst_host = nth_cyclic built.Topo_gen.pool i in
              let tcp = Tcp.start topo ~flow:i ~src ~dst:dst_host () in
              tcp_meters := Tcp.delivered_meter tcp :: !tcp_meters
            done)
      specs;
    let delivered =
      (if !web_flows > 0 then [ web_meter ] else []) @ List.rev !tcp_meters
    in
    { delivered }
  end
