module Sim = Mcc_engine.Sim
module Node = Mcc_net.Node
module Packet = Mcc_net.Packet
module Payload = Mcc_net.Payload
module Topology = Mcc_net.Topology
module Prng = Mcc_util.Prng
module Key = Mcc_delta.Key
module Field = Mcc_delta.Field
module Layered = Mcc_delta.Layered
module Replicated = Mcc_delta.Replicated
module Metrics = Mcc_obs.Metrics

type Payload.t +=
  | Rep_data of {
      session : int;
      group : int;
      slot : int;
      seq : int;
      last : bool;
      upgrade_mask : int;
      delta : Field.t option;
    }

(* ----------------------------------------------------------------- *)
(* Sender                                                            *)
(* ----------------------------------------------------------------- *)

type sender = {
  s_config : Flid.config;
  s_topo : Topology.t;
  s_node : Node.t;
  s_prng : Prng.t;
}

(* FLID's per-slot key work with Eq. 6's per-group top keys. *)
let prepare s ~slot ~mask ~counts:_ =
  let config = s.s_config in
  match config.Flid.mode with
  | Flid.Plain -> None
  | Flid.Robust ->
      let st =
        Flid.slot_keys ~create:Replicated.sender_create config s.s_prng ~mask
      in
      ignore
        (Flid.distribute_keys config s.s_topo ~node:s.s_node ~guarded:(slot + 2)
           (Layered.sender_keys st));
      Some st

let emit s st ~group ~slot ~seq ~last ~repair:_ ~mask =
  let config = s.s_config in
  let delta = Flid.delta_field st ~group ~last in
  Node.originate s.s_node
    (Packet.make ~src:s.s_node.Node.id
       ~dst:(Packet.Multicast (Flid.group_addr config group))
       ~size:(config.Flid.packet_size + Flid.field_bytes delta)
       (Rep_data
          { session = config.id; group; slot; seq; last; upgrade_mask = mask;
            delta }))

let sender_start ?at topo ~node ~prng (config : Flid.config) =
  let s = { s_config = config; s_topo = topo; s_node = node; s_prng = prng } in
  (* Each group carries the full content: group g transmits at the
     cumulative rate R_g, not a layer residue. *)
  Slotted.sender_start ?at topo ~node ~base_group:config.base_group
    ~rates:
      (Array.init config.layering.Layering.groups (fun i ->
           Layering.cumulative_rate config.layering ~level:(i + 1)))
    ~packet_size:config.packet_size ~repair_fraction:0.
    ~slot_duration:config.slot_duration
    ~upgrade_period:(Flid.default_upgrade_period config.layering)
    ~prepare:(prepare s) ~emit:(emit s) ();
  s

(* ----------------------------------------------------------------- *)
(* Receiver                                                          *)
(* ----------------------------------------------------------------- *)

(* A replicated receiver is a one-lane chassis: the lane counts only the
   subscribed group's packets, and the chassis level is that group. *)

type state = {
  adversary : Flid.adversary option;
  prng : Prng.t;
  mutable misbehaving : bool;
  mutable joined_all : bool;
}

type receiver = (Layered.receiver, state) Slotted.t

let receiver_meter (r : receiver) = r.Slotted.meter
let receiver_group (r : receiver) = r.Slotted.level
let group_series (r : receiver) = r.Slotted.series
let receiver_stop = Slotted.stop

(* Plain switch: join the new group before leaving the old one. *)
let switch (rx : receiver) ~slot group =
  Slotted.join rx group;
  Slotted.leave_group rx rx.Slotted.level;
  rx.active_since.(0) <- slot + 2;
  Slotted.set_level rx group

let plain_inflate (rx : receiver) =
  let r = rx.Slotted.state in
  if not r.joined_all then begin
    r.joined_all <- true;
    (* Replicated inflation: jump straight to the fastest group (and,
       greedily, keep everything else too). *)
    for g = 1 to rx.proto.groups do
      Slotted.join rx g
    done;
    Slotted.set_level rx rx.proto.groups
  end

let eval_robust (rx : receiver) slot rec_ delta ~congested =
  let r = rx.Slotted.state in
  let n = rx.proto.groups in
  let g = rx.level in
  let outcome =
    Replicated.slot_end delta ~group:g ~congested ~upgrade_to:(fun j ->
        j <= n && Slotted.mask_bit rec_.Slotted.mask j)
  in
  let next = outcome.Replicated.next_group in
  let pairs =
    match outcome.Replicated.key with
    | Some k when next >= 1 -> [ (Slotted.addr rx next, k) ]
    | Some _ | None -> []
  in
  let pairs =
    if r.misbehaving then
      (* Claim every faster group with guessed keys. *)
      pairs
      @ List.filter_map
          (fun j ->
            if j > next then
              Some
                ( Slotted.addr rx j,
                  Key.nonce r.prng ~width:rx.proto.key_width )
            else None)
          (List.init n (fun i -> i + 1))
    else pairs
  in
  Slotted.subscribe rx ~slot:(slot + 2) pairs;
  if next = 0 then begin
    Slotted.session_join rx;
    rx.active_since.(0) <- slot + 3;
    Slotted.set_level rx 1
  end
  else if next <> g then begin
    (* Switch, don't stack: a replicated receiver leaves its old group
       as it moves, otherwise both rates transit the bottleneck and the
       overlap itself causes congestion. *)
    if not r.misbehaving then Slotted.unsubscribe rx g g;
    rx.active_since.(0) <- slot + 2;
    Slotted.set_level rx next
  end;
  (* Total silence while nominally subscribed: knock again. *)
  Slotted.knock rx rec_

let eval_slot (rx : receiver) slot rec_ =
  let r = rx.Slotted.state in
  (* Replicated receivers hold one group at a time, so every active
     adversary degrades to the same misbehaviour: claim the faster
     streams with guessed keys (Robust) or plain joins. *)
  Option.iter
    (fun a ->
      r.misbehaving <-
        a.Flid.adv_active ~time:(Sim.now (Topology.sim rx.Slotted.topo)))
    r.adversary;
  Metrics.tick "rep.slots";
  if Slotted.effective_level rx slot >= 1 then begin
    let congested = Slotted.group_lost rec_ 1 in
    if congested then Metrics.tick "rep.inferred_losses";
    let g = rx.level in
    match rec_.keys with
    | None ->
        if r.misbehaving then plain_inflate rx
        else if congested then (if g > 1 then switch rx ~slot (g - 1))
        else if g < rx.proto.groups && Slotted.mask_bit rec_.mask (g + 1) then
          switch rx ~slot (g + 1)
    | Some delta -> eval_robust rx slot rec_ delta ~congested
  end

let on_data rx pkt =
  match pkt.Packet.payload with
  | Rep_data { session; group; slot; seq; last; upgrade_mask; _ }
    when session = rx.Slotted.proto.session ->
      Slotted.on_packet rx pkt ~group ~slot ~seq ~last ~mask:upgrade_mask
  | _ -> ()

let receiver_start ?at ?(behavior = Flid.Well_behaved) topo ~host ~prng
    (config : Flid.config) =
  let n = config.layering.Layering.groups in
  let adversary =
    match behavior with
    | Flid.Well_behaved -> None
    | Flid.Inflate_after at -> Some (Flid.inflation_adversary ~at)
    | Flid.Adversarial a -> Some a
  in
  let rx =
    Slotted.create topo ~host
      {
        Slotted.names =
          {
            Slotted.prefix = "rep";
            component = "rep.receiver";
            event = "switch";
            field = "group";
            changes = "rep.switches";
          };
        session = config.id;
        base_group = config.base_group;
        groups = n;
        lane_count = 1;
        slot_duration = config.slot_duration;
        key_width = Key.default_width;
        new_keys =
          (match config.mode with
          | Flid.Robust -> Some (fun () -> Layered.receiver_create ~groups:n)
          | Flid.Plain -> None);
        (* A packet of another group (stale forwarding during a switch)
           counts in no lane but still feeds the DELTA accumulators,
           which are per-group. *)
        feed =
          (fun dr -> function
            | Rep_data { group; delta = Some f; _ } ->
                Layered.on_packet dr ~group ~component:f.Field.component
                  ~decrease:f.Field.decrease
            | _ -> ());
        lane_of = (fun ~level ~group -> if group = level then 0 else -1);
        law = eval_slot;
        attrs = (fun _ -> []);
      }
      { adversary; prng; misbehaving = false; joined_all = false }
  in
  Slotted.start ?at rx (on_data rx);
  rx
