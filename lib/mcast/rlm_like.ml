module Sim = Mcc_engine.Sim
module Node = Mcc_net.Node
module Packet = Mcc_net.Packet
module Payload = Mcc_net.Payload
module Topology = Mcc_net.Topology
module Prng = Mcc_util.Prng
module Shamir = Mcc_util.Shamir
module Threshold = Mcc_delta.Threshold
module Tuple = Mcc_sigma.Tuple
module Special = Mcc_sigma.Special
module Metrics = Mcc_obs.Metrics

type policy = Ladder | Equation

type config = {
  id : int;
  base_group : int;
  layering : Layering.t;
  slot_duration : float;
  packet_size : int;
  mode : Flid.mode;
  base_threshold : float;
  threshold_decay : float;
  repair_fraction : float;
  policy : policy;
}

let aligned_threshold fraction = fraction /. (1. +. fraction)

let make_config ?(base_threshold = 0.25) ?(threshold_decay = 1.3)
    ?(repair_fraction = 0.) ?(policy = Ladder) ~id ~base_group ~layering
    ~slot_duration ~mode () =
  if base_threshold <= 0. || base_threshold >= 1. then
    invalid_arg "Rlm_like.make_config: base_threshold";
  if threshold_decay < 1. then invalid_arg "Rlm_like.make_config: decay";
  if repair_fraction < 0. then invalid_arg "Rlm_like.make_config: repair";
  {
    id;
    base_group;
    layering;
    slot_duration;
    packet_size = 576;
    mode;
    base_threshold;
    threshold_decay;
    repair_fraction;
    policy;
  }

let group_addr config g = config.base_group + g - 1

let threshold config ~level =
  config.base_threshold /. (config.threshold_decay ** float_of_int (level - 1))

type Payload.t +=
  | Rlm_data of {
      session : int;
      group : int;
      slot : int;
      seq : int;
      last : bool;
      repair : bool;
      upgrade_mask : int;
      top_shares : (int * Shamir.share) list Lazy.t;
      inc_shares : (int * Shamir.share) list Lazy.t;
    }

type Payload.t +=
  | Rtt_probe of { session : int; receiver : int; sent_at : float }
  | Rtt_echo of { session : int; receiver : int; sent_at : float }

let mask_bit = Slotted.mask_bit

(* ----------------------------------------------------------------- *)
(* Sender                                                            *)
(* ----------------------------------------------------------------- *)

type sender = {
  s_config : config;
  s_topo : Topology.t;
  s_node : Node.t;
  s_prng : Prng.t;
  mutable s_share_bits : int;
  mutable s_data_bits : int;
}

let share_overhead_bits s = s.s_share_bits
let data_bits s = s.s_data_bits

let thresholds config n =
  Array.init n (fun i -> threshold config ~level:(i + 1))

(* Robust mode: split the slot's level keys (and the increase keys for
   levels 1..N-1, key l guarding level l+1) over its packets, sized by
   the slot's packet counts, and distribute them through SIGMA. *)
let prepare s ~slot ~mask ~counts =
  let config = s.s_config in
  let n = config.layering.Layering.groups in
  match config.mode with
  | Flid.Plain -> None
  | Flid.Robust ->
      let top =
        Threshold.sender_create ~prng:s.s_prng ~levels:n
          ~per_group_counts:counts ~loss_thresholds:(thresholds config n)
      in
      let inc =
        if n >= 2 then
          Some
            (Threshold.sender_create ~prng:s.s_prng ~levels:(n - 1)
               ~per_group_counts:(Array.sub counts 0 (n - 1))
               ~loss_thresholds:(Array.sub (thresholds config n) 0 (n - 1)))
        else None
      in
      let guarded = slot + 2 in
      let tuples =
        List.init n (fun i ->
            let g = i + 1 in
            let keys = [ Threshold.level_key top ~level:g ] in
            let keys =
              match inc with
              | Some inc_sender when g >= 2 && mask_bit mask g ->
                  Threshold.level_key inc_sender ~level:(g - 1) :: keys
              | Some _ | None -> keys
            in
            Tuple.make ~group:(group_addr config g) ~slot:guarded ~keys
              ~minimal:(g = 1))
      in
      ignore
        (Special.distribute s.s_topo ~sender:s.s_node ~session:config.id
           ~via_group:(group_addr config 1) ~width:31 ~slot:guarded
           ~slot_duration:config.slot_duration ~tuples ());
      Some (top, inc)

(* Increase targets group+1..n authorized in the mask, one share each. *)
let rec authorized mask t n =
  if t > n then 0
  else (if mask_bit mask t then 1 else 0) + authorized mask (t + 1) n

(* The shares are evaluated only when a receiver takes the packet (most
   emissions die at the sender's node); its size and the share overhead
   come from the share counts. *)
let emit s keys ~group ~slot ~seq ~last ~repair ~mask =
  let config = s.s_config in
  let n = config.layering.Layering.groups in
  let packet_index = seq + 1 in
  let top_shares, top_bytes =
    match keys with
    | Some (top, _) ->
        ( lazy (Threshold.shares_for_packet top ~group ~packet_index),
          Threshold.share_bytes_per_packet top ~group )
    | None -> (lazy [], 0)
  in
  let inc_shares, inc_bytes =
    match keys with
    | Some (_, Some inc) when group <= n - 1 ->
        (* Shares of increase keys, only for authorized targets. *)
        ( lazy
            (List.filter_map
               (fun (l, share) ->
                 if mask_bit mask (l + 1) then Some (l + 1, share) else None)
               (Threshold.shares_for_packet inc ~group ~packet_index)),
          4 * authorized mask (group + 1) n )
    | Some _ | None -> (lazy [], 0)
  in
  let share_bytes = top_bytes + inc_bytes in
  s.s_share_bits <- s.s_share_bits + (8 * share_bytes);
  s.s_data_bits <- s.s_data_bits + (8 * config.packet_size);
  Node.originate s.s_node
    (Packet.make ~src:s.s_node.Node.id
       ~dst:(Packet.Multicast (group_addr config group))
       ~size:(config.packet_size + share_bytes)
       (Rlm_data
          {
            session = config.id;
            group;
            slot;
            seq;
            last;
            repair;
            upgrade_mask = mask;
            top_shares;
            inc_shares;
          }))

let sender_start ?at topo ~node ~prng config =
  (* Echo RTT probes: the Equation policy measures its multicast round
     trip against the sender. *)
  Node.add_unicast_handler node (fun pkt ->
      match pkt.Packet.payload with
      | Rtt_probe { session; receiver; sent_at } when session = config.id ->
          Node.originate node
            (Packet.make ~src:node.Node.id ~dst:(Packet.Unicast receiver)
               ~size:40 (Rtt_echo { session; receiver; sent_at }));
          true
      | _ -> false);
  let s =
    {
      s_config = config;
      s_topo = topo;
      s_node = node;
      s_prng = prng;
      s_share_bits = 0;
      s_data_bits = 0;
    }
  in
  Slotted.sender_start ?at topo ~node ~base_group:config.base_group
    ~rates:
      (Array.init config.layering.Layering.groups (fun i ->
           Layering.layer_rate config.layering ~group:(i + 1)))
    ~packet_size:config.packet_size ~repair_fraction:config.repair_fraction
    ~slot_duration:config.slot_duration
    ~upgrade_period:(Flid.default_upgrade_period config.layering)
    ~prepare:(prepare s) ~emit:(emit s) ();
  s

(* ----------------------------------------------------------------- *)
(* Receiver                                                          *)
(* ----------------------------------------------------------------- *)

type state = {
  config : config;
  loss_est : Tfrc.Loss_estimator.t;
  mutable srtt : float option;
}

(* Per slot in Robust mode: the level-key and increase-key share sets. *)
type receiver = (Threshold.receiver * Threshold.receiver, state) Slotted.t

let receiver_meter (r : receiver) = r.Slotted.meter
let receiver_level (r : receiver) = r.Slotted.level
let receiver_rtt (r : receiver) = r.Slotted.state.srtt
let receiver_loss_rate (r : receiver) =
  Tfrc.Loss_estimator.value r.Slotted.state.loss_est
let receiver_stop = Slotted.stop

(* Expected packets of a group this slot, falling back to the rate-based
   estimate when even the last packet was lost. *)
let expected config rec_ g =
  let lane = rec_.Slotted.lanes.(g - 1) in
  if lane.last >= 0 then lane.last + 1
  else if lane.count > 0 then lane.count + 1
  else
    let rate = Layering.layer_rate config.layering ~group:g in
    let originals =
      rate *. config.slot_duration /. float_of_int (config.packet_size * 8)
    in
    max 1 (int_of_float (originals *. (1. +. config.repair_fraction)))

let loss_rate config rec_ ~upto =
  let exp_total = ref 0 and got_total = ref 0 in
  for g = 1 to upto do
    exp_total := !exp_total + expected config rec_ g;
    got_total := !got_total + rec_.Slotted.lanes.(g - 1).count
  done;
  if !exp_total = 0 then 0.
  else
    Float.max 0.
      (float_of_int (!exp_total - !got_total) /. float_of_int !exp_total)

(* Quorum for level l given its expected packet count, mirroring the
   sender's construction. *)
let quorum_for config rec_ ~level =
  let n_l = ref 0 in
  for g = 1 to level do
    n_l := !n_l + expected config rec_ g
  done;
  max 1
    (int_of_float (ceil ((1. -. threshold config ~level) *. float_of_int !n_l)))

(* Reconstruct a key per group of the target subscription.  The quorum
   estimate mirrors the sender's; an estimate off by a lost tail merely
   under-claims. *)
let eval_robust (rx : receiver) slot rec_ (top_recv, inc_recv) ~g ~target =
  let config = rx.Slotted.state.config in
  let pairs = ref [] in
  let reachable = ref 0 in
  (try
     for l = 1 to min target config.layering.Layering.groups do
       let key =
         if l = g + 1 then
           (* Upgrade: the increase key for level g+1 lives in the inc
              scheme at index g. *)
           Threshold.reconstruct inc_recv ~level:g
             ~quorum:(quorum_for config rec_ ~level:g)
         else
           Threshold.reconstruct top_recv ~level:l
             ~quorum:(quorum_for config rec_ ~level:l)
       in
       match key with
       | Some k ->
           pairs := (Slotted.addr rx l, k) :: !pairs;
           reachable := l
       | None -> raise Exit
     done
   with Exit -> ());
  Slotted.subscribe rx ~slot:(slot + 2) !pairs;
  match !reachable with
  | 0 ->
      (* Not even the minimal key: knock again.  The upper groups are
         not unsubscribed; their grants lapse unrenewed. *)
      Slotted.session_join rx;
      rx.active_since.(0) <- slot + 3;
      if rx.level <> 1 then Slotted.set_level rx 1
  | next -> Slotted.resubscribe rx ~slot ~release:true next

let eval_plain (rx : receiver) slot ~target =
  let next = if target = 0 then 1 else target in
  let level = rx.Slotted.level in
  for l = level + 1 to next do
    Slotted.join rx l;
    rx.active_since.(l - 1) <- slot + 2
  done;
  for l = next + 1 to level do
    Slotted.leave_group rx l;
    rx.active_since.(l - 1) <- max_int
  done;
  if next <> level then Slotted.set_level rx next

let eval_slot (rx : receiver) slot rec_ =
  let r = rx.Slotted.state in
  let config = r.config in
  let n = config.layering.Layering.groups in
  Metrics.tick "rlm.slots";
  let level_before = rx.level in
  let g = Slotted.effective_level rx slot in
  if g >= 1 then begin
    let rate_g = loss_rate config rec_ ~upto:g in
    Tfrc.Loss_estimator.update r.loss_est ~loss_rate:rate_g;
    let congested = rate_g > threshold config ~level:g in
    if congested then Metrics.tick "rlm.inferred_losses";
    let upgrade () =
      if g = rx.level && g < n && mask_bit rec_.Slotted.mask (g + 1) then g + 1
      else min g rx.level
    in
    let target =
      match config.policy with
      | Ladder ->
          if congested then begin
            (* Drop to the highest level whose tolerance covers its loss. *)
            let rec descend l =
              if l < 1 then 0
              else if loss_rate config rec_ ~upto:l <= threshold config ~level:l
              then l
              else descend (l - 1)
            in
            descend (g - 1)
          end
          else upgrade ()
      | Equation ->
          let p = Tfrc.Loss_estimator.value r.loss_est in
          let rtt = Option.value r.srtt ~default:0.1 in
          let fair_rate =
            Tfrc.throughput ~packet_bytes:config.packet_size ~rtt ~loss_rate:p
          in
          let desired =
            if fair_rate = infinity then n
            else max 1 (Layering.fair_level config.layering ~rate_bps:fair_rate)
          in
          (* Upgrades remain gated by increase-key authorization. *)
          if desired > g then upgrade () else desired
    in
    match rec_.keys with
    | Some keys -> eval_robust rx slot rec_ keys ~g ~target
    | None -> eval_plain rx slot ~target
  end;
  let delta = rx.level - level_before in
  if delta <> 0 then
    Metrics.tick
      (if delta > 0 then "rlm.joins" else "rlm.leaves")
      ~by:(abs delta)

(* RTT probing toward the session source, one probe per second. *)
let start_probes ~at (rx : receiver) =
  let host = rx.Slotted.host in
  let topo = rx.topo in
  let session = rx.proto.session in
  Node.add_unicast_handler host (fun pkt ->
      match pkt.Packet.payload with
      | Rtt_echo { session = s; receiver; sent_at }
        when s = session && receiver = host.Node.id ->
          let sample = Sim.now (Topology.sim topo) -. sent_at in
          let r = rx.state in
          r.srtt <-
            (match r.srtt with
            | None -> Some sample
            | Some srtt -> Some ((0.875 *. srtt) +. (0.125 *. sample)));
          true
      | _ -> false);
  ignore
    (Sim.every (Topology.sim topo) ~start:(at +. 0.1) ~period:1.0 (fun () ->
         if not rx.stopped then
           match Topology.group_source topo (Slotted.addr rx 1) with
           | Some source ->
               Node.originate host
                 (Packet.make ~src:host.Node.id
                    ~dst:(Packet.Unicast source.Node.id) ~size:40
                    (Rtt_probe
                       {
                         session;
                         receiver = host.Node.id;
                         sent_at = Sim.now (Topology.sim topo);
                       }))
           | None -> ()))

let on_data rx pkt =
  match pkt.Packet.payload with
  | Rlm_data { session; group; slot; seq; last; upgrade_mask; _ }
    when session = rx.Slotted.proto.session ->
      Slotted.on_packet rx pkt ~group ~slot ~seq ~last ~mask:upgrade_mask
  | _ -> ()

let receiver_start ?(at = 0.) topo ~host ~prng config =
  (* Threshold receivers draw no randomness; the parameter keeps
     receiver construction uniform across the protocol library. *)
  ignore (prng : Prng.t);
  let n = config.layering.Layering.groups in
  let rx =
    Slotted.create topo ~host
      {
        Slotted.names =
          {
            Slotted.prefix = "rlm";
            component = "rlm.receiver";
            event = "level";
            field = "level";
            changes = "rlm.level_changes";
          };
        session = config.id;
        base_group = config.base_group;
        groups = n;
        lane_count = n;
        slot_duration = config.slot_duration;
        key_width = 31;
        new_keys =
          (match config.mode with
          | Flid.Robust ->
              Some
                (fun () ->
                  ( Threshold.receiver_create ~levels:n,
                    Threshold.receiver_create ~levels:(max 1 (n - 1)) ))
          | Flid.Plain -> None);
        feed =
          (fun (top, inc) -> function
            | Rlm_data { top_shares; inc_shares; _ } ->
                Threshold.on_shares top (Lazy.force top_shares);
                Threshold.on_shares inc
                  (List.map
                     (fun (target, share) -> (target - 1, share))
                     (Lazy.force inc_shares))
            | _ -> ());
        lane_of = (fun ~level:_ ~group -> group - 1);
        law = eval_slot;
        attrs = (fun _ -> []);
      }
      { config; loss_est = Tfrc.Loss_estimator.create (); srtt = None }
  in
  (match config.policy with Equation -> start_probes ~at rx | Ladder -> ());
  Slotted.start ~at rx (on_data rx);
  rx
