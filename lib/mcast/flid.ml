module Sim = Mcc_engine.Sim
module Node = Mcc_net.Node
module Packet = Mcc_net.Packet
module Payload = Mcc_net.Payload
module Topology = Mcc_net.Topology
module Prng = Mcc_util.Prng
module Key = Mcc_delta.Key
module Field = Mcc_delta.Field
module Layered = Mcc_delta.Layered
module Tuple = Mcc_sigma.Tuple
module Special = Mcc_sigma.Special
module Metrics = Mcc_obs.Metrics

type mode = Plain | Robust

type config = {
  id : int;
  base_group : int;
  layering : Layering.t;
  slot_duration : float;
  packet_size : int;
  mode : mode;
  fec_scheme : Mcc_sigma.Fec.scheme;
}

let default_upgrade_period layering g =
  let r1 = layering.Layering.min_rate_bps in
  let rg = Layering.cumulative_rate layering ~level:g in
  max 2 (int_of_float (ceil (rg /. r1)))

let make_config ?(packet_size = 576) ?(fec_scheme = Mcc_sigma.Fec.Repetition 2)
    ~id ~base_group ~layering ~slot_duration ~mode () =
  if slot_duration <= 0. then invalid_arg "Flid.make_config: slot_duration";
  if packet_size <= 0 then invalid_arg "Flid.make_config: packet_size";
  { id; base_group; layering; slot_duration; packet_size; mode; fec_scheme }

let group_addr config g = config.base_group + g - 1

type Payload.t +=
  | Data of {
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

type sender_stats = {
  mutable slots : int;
  mutable data_bits : int;
  mutable delta_bits : int;
  mutable sigma_payload_bits : int;
  mutable sigma_header_bits : int;
  mutable sigma_packets : int;
  mutable authorizations : int array;
  mutable fec_expansion : float;
}

type sender = {
  s_config : config;
  s_topo : Topology.t;
  s_node : Node.t;
  s_prng : Prng.t;
  mutable s_keys : (int * Layered.keys) list;  (* (guarded slot, keys) *)
  s_stats : sender_stats;
}

let sender_stats s = s.s_stats
let sender_keys_for_slot s ~slot = List.assoc_opt slot s.s_keys

(* The slot's DELTA key state and its SIGMA distribution, shared with
   the replicated sender, which draws its keys with Eq. 6. *)
let slot_keys ~create config prng ~mask =
  let n = config.layering.Layering.groups in
  let upgrades =
    Array.init n (fun i -> i >= 1 && Slotted.mask_bit mask (i + 1))
  in
  create ~prng ~width:Key.default_width ~groups:n ~upgrades

let distribute_keys config topo ~node ~guarded keys =
  let tuples =
    List.init config.layering.Layering.groups (fun i ->
        let g = i + 1 in
        Tuple.make ~group:(group_addr config g) ~slot:guarded
          ~keys:(Layered.valid_keys keys ~group:g) ~minimal:(g = 1))
  in
  Special.distribute ~scheme:config.fec_scheme topo ~sender:node
    ~session:config.id ~via_group:(group_addr config 1)
    ~width:Key.default_width ~slot:guarded ~slot_duration:config.slot_duration
    ~tuples ()

(* Per slot: count the upgrade authorizations, then (Robust) draw the
   DELTA key material guarding slot+2 and distribute its tuples through
   SIGMA.  The returned key state feeds every data packet of the slot. *)
let prepare s ~slot ~mask ~counts:_ =
  let config = s.s_config in
  let stats = s.s_stats in
  let n = config.layering.Layering.groups in
  stats.slots <- stats.slots + 1;
  for g = 2 to n do
    if Slotted.mask_bit mask g then
      stats.authorizations.(g - 1) <- stats.authorizations.(g - 1) + 1
  done;
  match config.mode with
  | Plain -> None
  | Robust ->
      let st =
        slot_keys ~create:Layered.sender_create config s.s_prng ~mask
      in
      let keys = Layered.sender_keys st in
      let guarded = slot + 2 in
      s.s_keys <- (guarded, keys) :: List.filteri (fun i _ -> i < 3) s.s_keys;
      let sent =
        distribute_keys config s.s_topo ~node:s.s_node ~guarded keys
      in
      stats.sigma_payload_bits <-
        stats.sigma_payload_bits + sent.Special.payload_bits;
      stats.sigma_header_bits <-
        stats.sigma_header_bits + sent.Special.header_bits;
      stats.sigma_packets <- stats.sigma_packets + sent.Special.packets;
      stats.fec_expansion <- sent.Special.expansion;
      Some st

(* A packet's DELTA fields are computed at its own emission instant. *)
let delta_field st ~group ~last =
  match st with
  | Some st ->
      Some
        (Field.make
           ~component:(Layered.next_component st ~group ~last)
           ~decrease:(Layered.decrease_field st ~group))
  | None -> None

let field_bytes = function
  | Some f -> Field.wire_bytes ~width:Key.default_width f
  | None -> 0

let emit s st ~group ~slot ~seq ~last ~repair:_ ~mask =
  let config = s.s_config in
  let delta = delta_field st ~group ~last in
  let bytes = field_bytes delta in
  let pkt =
    Packet.make ~src:s.s_node.Node.id
      ~dst:(Packet.Multicast (group_addr config group))
      ~size:(config.packet_size + bytes)
      (Data
         { session = config.id; group; slot; seq; last; upgrade_mask = mask;
           delta })
  in
  s.s_stats.data_bits <- s.s_stats.data_bits + (config.packet_size * 8);
  s.s_stats.delta_bits <- s.s_stats.delta_bits + (bytes * 8);
  Mcc_obs.Lineage.set_origin pkt.Packet.lineage ~session:config.id
    ~level:group
    ~time:(Sim.now (Topology.sim s.s_topo));
  Node.originate s.s_node pkt

let sender_start ?at topo ~node ~prng config =
  let n = config.layering.Layering.groups in
  let s =
    {
      s_config = config;
      s_topo = topo;
      s_node = node;
      s_prng = prng;
      s_keys = [];
      s_stats =
        {
          slots = 0;
          data_bits = 0;
          delta_bits = 0;
          sigma_payload_bits = 0;
          sigma_header_bits = 0;
          sigma_packets = 0;
          authorizations = Array.make n 0;
          fec_expansion = 1.;
        };
    }
  in
  Slotted.sender_start ?at ~span:"flid" topo ~node ~base_group:config.base_group
    ~rates:
      (Array.init n (fun i ->
           Layering.layer_rate config.layering ~group:(i + 1)))
    ~packet_size:config.packet_size ~repair_fraction:0.
    ~slot_duration:config.slot_duration
    ~upgrade_period:(default_upgrade_period config.layering)
    ~prepare:(prepare s) ~emit:(emit s) ();
  s

(* ----------------------------------------------------------------- *)
(* Receiver                                                          *)
(* ----------------------------------------------------------------- *)

(* An adversary is a pair of closures: whether the receiver misbehaves
   at a given instant, and — in Robust mode — what it actually submits
   to its edge router in place of the honest subscription.  Everything a
   strategy can use (entitled keys, the session's group addresses, a
   fresh-key draw from the receiver's own PRNG, past honest submissions)
   travels in the context, so strategies stay pure data from the
   receiver's point of view. *)

type submission = { sub_slot : int; sub_pairs : (int * Key.t) list }

type adv_ctx = {
  actx_time : float;
  actx_slot : int;  (* the guarded slot being subscribed (s + 2) *)
  actx_entitled : (int * Key.t) list;  (* (group addr, key): honestly earned *)
  actx_groups : int list;  (* every group address of the session *)
  actx_fresh_key : unit -> Key.t;
  actx_history : submission list;  (* past honest submissions, newest first *)
}

type adversary = {
  adv_label : string;
  adv_active : time:float -> bool;
  adv_submit : adv_ctx -> submission list;
}

type behavior = Well_behaved | Inflate_after of float | Adversarial of adversary

type state = {
  adversary : adversary option;
  prng : Prng.t;
  mutable congestions : int;
  mutable misbehaving : bool;
  mutable joined_all : bool;
  mutable history : submission list;
      (** honest (slot, pairs) submissions, newest first, bounded: what
          a colluder copies and what a stale-replay adversary mines *)
  mutable collude_source : receiver option;
      (** when set, this receiver replays that receiver's submissions
          instead of reconstructing keys itself (paper Section 4.2) *)
}

and receiver = (Layered.receiver, state) Slotted.t

let receiver_meter (r : receiver) = r.Slotted.meter
let receiver_level (r : receiver) = r.Slotted.level
let level_series (r : receiver) = r.Slotted.series
let congestion_events (r : receiver) = r.Slotted.state.congestions
let receiver_stop = Slotted.stop
let receiver_leave = Slotted.leave
let receiver_history (r : receiver) = r.Slotted.state.history

let set_colluder (r : receiver) ~source =
  r.Slotted.state.collude_source <- Some source

let now (r : (_, _) Slotted.t) = Sim.now (Topology.sim r.Slotted.topo)

(* Inflation guesses: claim every group of the session, drawing a random
   key for each one the receiver is not eligible for.  This is the single
   implementation of the paper's Figure 1 misbehaviour; both the legacy
   [Inflate_after] behaviour and the attack subsystem's strategies build
   on it. *)
let inflation_guesses ctx =
  let covered = List.map fst ctx.actx_entitled in
  List.filter_map
    (fun addr ->
      if List.mem addr covered then None else Some (addr, ctx.actx_fresh_key ()))
    ctx.actx_groups

let inflation_adversary ~at =
  {
    adv_label = "inflate";
    adv_active = (fun ~time -> time >= at);
    adv_submit =
      (fun ctx ->
        [
          {
            sub_slot = ctx.actx_slot;
            sub_pairs = ctx.actx_entitled @ inflation_guesses ctx;
          };
        ]);
  }

let subscribe_robust (rx : receiver) ~slot ~entitled_pairs =
  let r = rx.Slotted.state in
  let entitled =
    List.map (fun (g, k) -> (Slotted.addr rx g, k)) entitled_pairs
  in
  r.history <-
    { sub_slot = slot; sub_pairs = entitled }
    :: List.filteri (fun i _ -> i < 15) r.history;
  let submissions =
    match r.adversary with
    | Some a when r.misbehaving ->
        a.adv_submit
          {
            actx_time = now rx;
            actx_slot = slot;
            actx_entitled = entitled;
            actx_groups =
              List.init rx.proto.groups (fun i -> Slotted.addr rx (i + 1));
            actx_fresh_key =
              (fun () -> Key.nonce r.prng ~width:rx.proto.key_width);
            actx_history = r.history;
          }
    | Some _ | None -> [ { sub_slot = slot; sub_pairs = entitled } ]
  in
  List.iter
    (fun { sub_slot; sub_pairs } ->
      Slotted.subscribe rx ~slot:sub_slot sub_pairs)
    submissions

(* Plain-mode inflation: IGMP-join every group at once. *)
let plain_inflate (rx : receiver) =
  let r = rx.Slotted.state in
  if not r.joined_all then begin
    r.joined_all <- true;
    for g = 1 to rx.proto.groups do
      Slotted.join rx g
    done;
    Slotted.set_level rx rx.proto.groups
  end

let eval_plain (rx : receiver) slot rec_ effective congested =
  let level = rx.Slotted.level in
  if congested then begin
    let new_level = max 1 (level - 1) in
    if new_level < level then begin
      for g = new_level + 1 to level do
        Slotted.leave_group rx g;
        rx.active_since.(g - 1) <- max_int
      done;
      (* A pulse adversary that went quiet resumes honest behaviour:
         once a group is shed it must be able to re-inflate later. *)
      rx.state.joined_all <- false;
      Slotted.set_level rx new_level
    end
  end
  else if effective = level && level < rx.proto.groups
          && Slotted.mask_bit rec_.Slotted.mask (level + 1) then begin
    let g = level + 1 in
    Slotted.join rx g;
    rx.active_since.(g - 1) <- slot + 2;
    Slotted.set_level rx g
  end

let eval_robust (rx : receiver) slot rec_ delta effective congested lost =
  let upgrade_to j =
    effective = rx.Slotted.level && j <= rx.proto.groups
    && Slotted.mask_bit rec_.Slotted.mask j
  in
  let outcome =
    Layered.slot_end delta ~level:effective ~congested ~lost ~upgrade_to
  in
  subscribe_robust rx ~slot:(slot + 2) ~entitled_pairs:outcome.Layered.keys;
  let new_level =
    if effective = rx.level || congested then outcome.Layered.next_level
    else rx.level
  in
  Slotted.resubscribe rx ~slot ~release:(not rx.state.misbehaving) new_level;
  Slotted.knock rx rec_

(* A colluding receiver does not reconstruct anything: it replays, slot
   for slot, whatever its accomplice last submitted. *)
let collude rx (source : receiver) =
  match source.Slotted.state.history with
  | { sub_slot = slot; sub_pairs } :: _ -> Slotted.subscribe rx ~slot sub_pairs
  | [] -> ()

let eval_slot (rx : receiver) slot rec_ =
  let r = rx.Slotted.state in
  Metrics.tick "flid.slots";
  let level_before = rx.level in
  Option.iter
    (fun a -> r.misbehaving <- a.adv_active ~time:(now rx))
    r.adversary;
  let effective = Slotted.effective_level rx slot in
  (* A marked arrival counts as a loss: a trusted edge scrubbed its DELTA
     component, so no key can be rebuilt from it. *)
  let lost g =
    g <= effective
    && (Slotted.group_lost rec_ g || rec_.Slotted.lanes.(g - 1).marked > 0)
  in
  let congested =
    effective >= 1 && List.exists lost (List.init effective (fun i -> i + 1))
  in
  if congested then begin
    r.congestions <- r.congestions + 1;
    Metrics.tick "flid.inferred_losses"
  end;
  (match rec_.keys with
  | None ->
      if r.misbehaving then plain_inflate rx
      else if effective >= 1 then eval_plain rx slot rec_ effective congested
  | Some delta ->
      if effective >= 1 then
        eval_robust rx slot rec_ delta effective congested lost;
      Option.iter (collude rx) r.collude_source);
  let delta = rx.level - level_before in
  if delta > 0 then Metrics.tick "flid.joins" ~by:delta
  else if delta < 0 then Metrics.tick "flid.leaves" ~by:(-delta)

(* The receiving half of the wire format: one lane per group, layered
   DELTA key state per slot in Robust mode. *)
let receiver_proto config ~names ~law ~attrs =
  let n = config.layering.Layering.groups in
  {
    Slotted.names;
    session = config.id;
    base_group = config.base_group;
    groups = n;
    lane_count = n;
    slot_duration = config.slot_duration;
    key_width = Key.default_width;
    new_keys =
      (match config.mode with
      | Robust -> Some (fun () -> Layered.receiver_create ~groups:n)
      | Plain -> None);
    feed =
      (fun dr -> function
        | Data { group; delta = Some f; _ } ->
            Layered.on_packet dr ~group ~component:f.Field.component
              ~decrease:f.Field.decrease
        | _ -> ());
    lane_of = (fun ~level:_ ~group -> group - 1);
    law;
    attrs;
  }

let on_data rx pkt =
  match pkt.Packet.payload with
  | Data { session; group; slot; seq; last; upgrade_mask; _ }
    when session = rx.Slotted.proto.session ->
      Slotted.on_packet rx pkt ~group ~slot ~seq ~last ~mask:upgrade_mask
  | _ -> ()

let receiver_start ?at ?(behavior = Well_behaved) topo ~host ~prng config =
  (* The legacy constructor is sugar for the canonical inflation
     adversary, so the Figure 1 misbehaviour has a single
     implementation. *)
  let adversary =
    match behavior with
    | Well_behaved -> None
    | Inflate_after at -> Some (inflation_adversary ~at)
    | Adversarial a -> Some a
  in
  let names =
    {
      Slotted.prefix = "flid";
      component = "flid.receiver";
      event = "level";
      field = "level";
      changes = "flid.level_changes";
    }
  in
  let rx =
    Slotted.create topo ~host
      (receiver_proto config ~names ~law:eval_slot ~attrs:(fun _ -> []))
      {
        adversary;
        prng;
        congestions = 0;
        misbehaving = false;
        joined_all = false;
        history = [];
        collude_source = None;
      }
  in
  Slotted.start ?at rx (on_data rx);
  rx
