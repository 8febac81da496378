module Sim = Mcc_engine.Sim
module Node = Mcc_net.Node
module Link = Mcc_net.Link
module Packet = Mcc_net.Packet
module Prng = Mcc_util.Prng
module Flid = Mcc_mcast.Flid
module Layering = Mcc_mcast.Layering
module Router_agent = Mcc_sigma.Router_agent
module Tcp = Mcc_transport.Tcp
module On_off = Mcc_transport.On_off
module Field = Mcc_delta.Field
module Ecn = Mcc_delta.Ecn

type receiver_spec = {
  start_at : float;
  behavior : Flid.behavior;
  access_delay_s : float option;
  access_rate_bps : float option;
}

let receiver ?(at = 0.) ?(behavior = Flid.Well_behaved) ?access_delay_s
    ?access_rate_bps () =
  { start_at = at; behavior; access_delay_s; access_rate_bps }

type session = {
  config : Flid.config;
  sender : Flid.sender;
  receivers : Flid.receiver list;
}

type t = {
  sim : Sim.t;
  db : Dumbbell.t;
  prng : Prng.t;
  agent_config : Router_agent.config;
  sigma : bool;
  mutable next_session : int;
  mutable next_base_group : int;
  mutable agent : Router_agent.t option;
  mutable tcp_flows : int;
  mutable routed : bool;
}

let create ?(seed = 42) ?sched ?bottleneck_delay_s ?ecn ?packet_buffer
    ?(agent_config = Router_agent.default_config) ?(sigma = true)
    ~bottleneck_rate_bps () =
  let sim = Sim.create ?sched () in
  let db =
    Dumbbell.create ?bottleneck_delay_s ?ecn ?packet_buffer sim
      ~bottleneck_rate_bps ()
  in
  {
    sim;
    db;
    prng = Prng.create seed;
    agent_config;
    sigma;
    next_session = 1;
    next_base_group = 0x1000;
    agent = None;
    tcp_flows = 0;
    routed = false;
  }

let sim t = t.sim
let dumbbell t = t.db
let agent t = t.agent

(* Component transform for FLID payloads, installed on the SIGMA agent.
   Marked copies get a fresh random component (ECN scrub); with
   interface-specific keys enabled every other copy is XOR-padded and
   the pad recorded so the agent can map the interface's lower keys back
   to the sender's upper keys (paper Section 4.2).  The payload is
   replaced, never mutated: multicast branches share it. *)
let transform agent prng (link : Link.t) pkt =
  match pkt.Packet.payload with
  | Flid.Data ({ delta = Some f; group = _; slot; _ } as d) ->
      let width = Mcc_delta.Key.default_width in
      let iface_keys = Router_agent.interface_keys_enabled agent in
      let addr =
        match pkt.Packet.dst with
        | Packet.Multicast addr -> Some addr
        | Packet.Unicast _ -> None
      in
      let component =
        if pkt.Packet.ecn then
          Some (Ecn.scrubbed_component prng ~width f.Field.component)
        else
          match addr with
          | Some addr when iface_keys ->
              let pad = Mcc_delta.Key.nonce prng ~width in
              Router_agent.note_pad agent ~link_id:link.Link.id ~group:addr
                ~guarded_slot:(slot + 2) ~pad;
              Some (Mcc_delta.Key.xor f.Field.component pad)
          | Some _ | None -> None
      in
      let decrease =
        match (addr, f.Field.decrease) with
        | Some addr, Some dec when iface_keys ->
            (* The decrease field of group [addr]'s packets opens group
               [addr - 1] (consecutive addressing); a stable pad per
               (interface, opened group, guarded slot) keeps every copy
               the receiver sees consistent while making a lifted
               decrease key fail on any other interface. *)
            let pad =
              Router_agent.decrease_pad agent ~link_id:link.Link.id
                ~group:(addr - 1) ~guarded_slot:(slot + 2)
                ~fresh:(fun () -> Mcc_delta.Key.nonce prng ~width)
            in
            Some (Some (Mcc_delta.Key.xor dec pad))
        | _ -> None
      in
      if component <> None || decrease <> None then begin
        let fresh =
          Field.make
            ~component:(Option.value component ~default:f.Field.component)
            ~decrease:
              (match decrease with Some x -> x | None -> f.Field.decrease)
        in
        pkt.Packet.payload <- Flid.Data { d with delta = Some fresh }
      end
  | _ -> ()

let sigma_edge ~config topo node prng =
  let agent = Router_agent.attach ~config topo node in
  Router_agent.set_scrubber agent (transform agent prng);
  agent

(* With [sigma = false] the right-hand edge router stays a legacy IGMP
   device even for Robust sessions (the paper's incremental-deployment
   counterfactual): keys flow in band but nothing enforces them. *)
let ensure_agent t =
  if not t.sigma then None
  else
    match t.agent with
    | Some agent -> Some agent
    | None ->
        let agent =
          sigma_edge ~config:t.agent_config t.db.Dumbbell.topo
            t.db.Dumbbell.right (Prng.split t.prng)
        in
        t.agent <- Some agent;
        Some agent

(* What every add_* shares: the SIGMA agent of a Robust session, a fresh
   session id and group block, a sender host, and one receiver host per
   spec, all started through the protocol's module.  The PRNG splits
   keep one order (agent scrubber, sender, then receivers in spec
   order), so a scenario stays a function of its seed.  [receiver_mode]
   models receivers behind a legacy edge: a Plain-mode receiver of a
   Robust session falls back to IGMP control while the sender still
   pays the DELTA/SIGMA overhead (paper Section 3.2.3).  [make] stands
   in for [P.make] where an add_* exposes more of the protocol's
   config. *)
let session (type c s r)
    (module P : Protocol.S
      with type config = c
       and type sender = s
       and type receiver = r) ?receiver_mode ?slot ?layering ?(make = P.make)
    t ~mode specs =
  let layering = Option.value layering ~default:(Defaults.layering ()) in
  let slot_duration = Option.value slot ~default:(P.default_slot mode) in
  (match mode with Flid.Robust -> ignore (ensure_agent t) | Flid.Plain -> ());
  let id = t.next_session in
  t.next_session <- id + 1;
  let base_group = t.next_base_group in
  t.next_base_group <- base_group + layering.Layering.groups;
  let config = make ~id ~base_group ~layering ~slot_duration ~mode in
  let topo = t.db.Dumbbell.topo in
  let sender_host = Dumbbell.add_sender t.db in
  let sender =
    P.sender_start topo ~node:sender_host ~prng:(Prng.split t.prng) config
  in
  let receiver_config =
    match receiver_mode with Some m -> P.with_mode config m | None -> config
  in
  let receivers =
    List.map
      (fun spec ->
        let host =
          Dumbbell.add_receiver ?delay_s:spec.access_delay_s
            ?rate_bps:spec.access_rate_bps t.db
        in
        P.receiver_start ~at:spec.start_at ~behavior:spec.behavior topo ~host
          ~prng:(Prng.split t.prng) receiver_config)
      specs
  in
  (config, sender, receivers)

let add_session m ?receiver_mode t ~mode ~receivers () =
  session m ?receiver_mode t ~mode receivers

let add_multicast ?slot ?layering ?fec_scheme ?packet_size ?receiver_mode t
    ~mode ~receivers () =
  let config, sender, receivers =
    session (module Protocol.Flid) ?receiver_mode ?slot ?layering
      ~make:(fun ~id ~base_group ~layering ~slot_duration ~mode ->
        Flid.make_config ?fec_scheme ?packet_size ~id ~base_group ~layering
          ~slot_duration ~mode ())
      t ~mode receivers
  in
  { config; sender; receivers }

type replicated_session = {
  rep_config : Mcc_mcast.Flid.config;
  rep_sender : Mcc_mcast.Replicated_proto.sender;
  rep_receivers : Mcc_mcast.Replicated_proto.receiver list;
}

let add_replicated ?slot ?layering ?receiver_mode t ~mode ~receivers () =
  let rep_config, rep_sender, rep_receivers =
    session (module Protocol.Replicated) ?receiver_mode ?slot ?layering t ~mode
      receivers
  in
  { rep_config; rep_sender; rep_receivers }

type rlm_session = {
  rlm_config : Mcc_mcast.Rlm_like.config;
  rlm_sender : Mcc_mcast.Rlm_like.sender;
  rlm_receivers : Mcc_mcast.Rlm_like.receiver list;
}

let add_rlm ?slot ?layering ?policy ?receiver_mode t ~mode ~receivers () =
  let rlm_config, rlm_sender, rlm_receivers =
    session (module Protocol.Rlm) ?receiver_mode ?slot ?layering
      ~make:(fun ~id ~base_group ~layering ~slot_duration ~mode ->
        Mcc_mcast.Rlm_like.make_config ?policy ~id ~base_group ~layering
          ~slot_duration ~mode ())
      t ~mode receivers
  in
  { rlm_config; rlm_sender; rlm_receivers }

let add_tcp ?(at = 0.) t =
  t.tcp_flows <- t.tcp_flows + 1;
  let src = Dumbbell.add_sender t.db in
  let dst = Dumbbell.add_receiver t.db in
  Tcp.start ~at t.db.Dumbbell.topo ~flow:t.tcp_flows ~src ~dst ()

let add_onoff_cbr ?(at = 0.) ?until t ~rate_bps ~on_period ~off_period =
  let src = Dumbbell.add_sender t.db in
  let dst = Dumbbell.add_receiver t.db in
  On_off.start ~at ?until t.db.Dumbbell.topo ~src
    ~dst:(Packet.Unicast dst.Node.id) ~rate_bps ~size:Defaults.packet_size
    ~on_period ~off_period ()

let run t ~seconds =
  if not t.routed then begin
    Dumbbell.finalize t.db;
    t.routed <- true
  end;
  Sim.run_until t.sim seconds

let bottleneck_drops t = t.db.Dumbbell.forward.Link.drops
