module Sim = Mcc_engine.Sim
module Node = Mcc_net.Node
module Packet = Mcc_net.Packet
module Payload = Mcc_net.Payload
module Topology = Mcc_net.Topology
module Multicast = Mcc_net.Multicast
module Meter = Mcc_util.Meter
module Prng = Mcc_util.Prng
module Shamir = Mcc_util.Shamir
module Threshold = Mcc_delta.Threshold
module Tuple = Mcc_sigma.Tuple
module Special = Mcc_sigma.Special
module Client = Mcc_sigma.Client
module Metrics = Mcc_obs.Metrics
module Tracer = Mcc_obs.Tracer
module Timeseries = Mcc_obs.Timeseries
module Json = Mcc_obs.Json

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
  upgrade_period : int -> int;
  processing_margin : float;
}

let aligned_threshold fraction = fraction /. (1. +. fraction)

let make_config ?(packet_size = 576) ?(base_threshold = 0.25)
    ?(threshold_decay = 1.3) ?(repair_fraction = 0.) ?(policy = Ladder)
    ?upgrade_period ?(processing_margin = 0.9) ~id ~base_group ~layering
    ~slot_duration ~mode () =
  if base_threshold <= 0. || base_threshold >= 1. then
    invalid_arg "Rlm_like.make_config: base_threshold";
  if threshold_decay < 1. then invalid_arg "Rlm_like.make_config: decay";
  if repair_fraction < 0. then invalid_arg "Rlm_like.make_config: repair";
  let upgrade_period =
    match upgrade_period with
    | Some f -> f
    | None -> Flid.default_upgrade_period layering
  in
  {
    id;
    base_group;
    layering;
    slot_duration;
    packet_size;
    mode;
    base_threshold;
    threshold_decay;
    repair_fraction;
    policy;
    upgrade_period;
    processing_margin;
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
      top_shares : (int * Shamir.share) list;
      inc_shares : (int * Shamir.share) list;
    }

type Payload.t +=
  | Rtt_probe of { session : int; receiver : int; sent_at : float }
  | Rtt_echo of { session : int; receiver : int; sent_at : float }

let () =
  Payload.register_pp (fun fmt -> function
    | Rtt_probe { session; receiver; _ } ->
        Format.fprintf fmt "rlm-probe s%d r%d" session receiver;
        true
    | Rtt_echo { session; receiver; _ } ->
        Format.fprintf fmt "rlm-echo s%d r%d" session receiver;
        true
    | Rlm_data { session; group; slot; seq; _ } ->
        Format.fprintf fmt "rlm s%d g%d slot%d #%d" session group slot seq;
        true
    | _ -> false)

let mask_bit mask g = mask land (1 lsl (g - 1)) <> 0

(* ----------------------------------------------------------------- *)
(* Sender                                                            *)
(* ----------------------------------------------------------------- *)

type slot_state = {
  top : Threshold.sender;
  inc : Threshold.sender option;  (* levels 1..N-1; key l guards level l+1 *)
  mask : int;
}

type sender = {
  s_config : config;
  s_topo : Topology.t;
  s_node : Node.t;
  s_prng : Prng.t;
  mutable s_slot : int;
  s_credits : float array;
  mutable s_share_bits : int;
  mutable s_data_bits : int;
  mutable s_tick : Sim.handle option;
  mutable s_stopped : bool;
}

let sender_stop s =
  s.s_stopped <- true;
  match s.s_tick with Some h -> Sim.cancel h | None -> ()

let share_overhead_bits s = s.s_share_bits
let data_bits s = s.s_data_bits

let upgrade_mask config slot =
  let n = config.layering.Layering.groups in
  let mask = ref 0 in
  for g = 2 to n do
    if (slot + g) mod config.upgrade_period g = 0 then
      mask := !mask lor (1 lsl (g - 1))
  done;
  !mask

let thresholds config n =
  Array.init n (fun i -> threshold config ~level:(i + 1))

let emit s ~group ~slot ~seq ~last ~repair ~state ~counts () =
  if not s.s_stopped then begin
    let config = s.s_config in
    let n = config.layering.Layering.groups in
    let packet_index = seq + 1 in
    let top_shares =
      Threshold.shares_for_packet state.top ~group ~packet_index
    in
    let inc_shares =
      match state.inc with
      | Some inc when group <= n - 1 ->
          (* Shares of increase keys, only for authorized targets. *)
          List.filter_map
            (fun (l, share) ->
              if mask_bit state.mask (l + 1) then Some (l + 1, share) else None)
            (Threshold.shares_for_packet inc ~group ~packet_index)
      | Some _ | None -> []
    in
    ignore counts;
    let share_bytes = 4 * (List.length top_shares + List.length inc_shares) in
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
              upgrade_mask = state.mask;
              top_shares;
              inc_shares;
            }))
  end

let sender_slot_tick s () =
  let config = s.s_config in
  let sim = Topology.sim s.s_topo in
  let tick_now = Sim.now sim in
  let n = config.layering.Layering.groups in
  let slot = s.s_slot in
  s.s_slot <- slot + 1;
  let mask = upgrade_mask config slot in
  (* Packet counts for the slot are decided up front, which is what lets
     Shamir polynomials be sized exactly. *)
  let originals =
    Array.init n (fun i ->
        let g = i + 1 in
        let rate = Layering.layer_rate config.layering ~group:g in
        s.s_credits.(i) <-
          s.s_credits.(i)
          +. (rate *. config.slot_duration /. float_of_int (config.packet_size * 8));
        let count = max 1 (int_of_float s.s_credits.(i)) in
        s.s_credits.(i) <- s.s_credits.(i) -. float_of_int count;
        count)
  in
  (* Reliability extension: repair packets join the slot and carry key
     shares exactly like originals (paper Section 3.1.2). *)
  let counts =
    Array.map
      (fun c ->
        c + int_of_float (ceil (config.repair_fraction *. float_of_int c)))
      originals
  in
  let state =
    match config.mode with
    | Flid.Plain ->
        { top = Threshold.sender_create ~prng:s.s_prng ~levels:1
                  ~per_group_counts:[| 1 |] ~loss_thresholds:[| 0.5 |];
          inc = None;
          mask }
        (* placeholder, unused in Plain mode *)
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
        { top; inc; mask }
  in
  for g = 1 to n do
    let count = counts.(g - 1) in
    let spacing = config.slot_duration /. float_of_int count in
    let phase = float_of_int g /. float_of_int (n + 1) *. spacing in
    for i = 0 to count - 1 do
      let last = i = count - 1 in
      let repair = i >= originals.(g - 1) in
      Sim.post sim
           ~at:(tick_now +. phase +. (float_of_int i *. spacing))
           (fun () ->
             if config.mode = Flid.Robust then
               emit s ~group:g ~slot ~seq:i ~last ~repair ~state ~counts ()
             else begin
               s.s_data_bits <- s.s_data_bits + (8 * config.packet_size);
               Node.originate s.s_node
                 (Packet.make ~src:s.s_node.Node.id
                    ~dst:(Packet.Multicast (group_addr config g))
                    ~size:config.packet_size
                    (Rlm_data
                       {
                         session = config.id;
                         group = g;
                         slot;
                         seq = i;
                         last;
                         repair;
                         upgrade_mask = state.mask;
                         top_shares = [];
                         inc_shares = [];
                       }))
             end)
    done
  done

let sender_start ?(at = 0.) topo ~node ~prng config =
  let n = config.layering.Layering.groups in
  for g = 1 to n do
    Topology.register_group topo ~group:(group_addr config g) ~source:node
  done;
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
      s_slot = 0;
      s_credits = Array.make n 0.;
      s_share_bits = 0;
      s_data_bits = 0;
      s_tick = None;
      s_stopped = false;
    }
  in
  s.s_tick <-
    Some
      (Sim.every (Topology.sim topo) ~start:at ~period:config.slot_duration
         (sender_slot_tick s));
  s

(* ----------------------------------------------------------------- *)
(* Receiver                                                          *)
(* ----------------------------------------------------------------- *)

type group_slot_rec = {
  mutable count : int;
  mutable last_seq : int option;
  mutable saw_last : bool;
}

type slot_rec = {
  per_group : group_slot_rec array;
  top_recv : Threshold.receiver;
  inc_recv : Threshold.receiver;
  mutable mask : int;
}

type receiver = {
  r_config : config;
  r_topo : Topology.t;
  r_host : Node.t;
  r_prng : Prng.t;
  r_meter : Meter.t;
  mutable r_level : int;
  r_active_since : int array;
  r_slots : (int, slot_rec) Hashtbl.t;
  mutable r_base : float;
  mutable r_synced : bool;
  mutable r_next_eval : int;
  r_highest : int array;
  r_client : Client.t option;
  r_loss_est : Tfrc.Loss_estimator.t;
  mutable r_srtt : float option;
  mutable r_stopped : bool;
}

let receiver_meter r = r.r_meter
let receiver_level r = r.r_level
let receiver_rtt r = r.r_srtt
let receiver_loss_rate r = Tfrc.Loss_estimator.value r.r_loss_est
let receiver_stop r = r.r_stopped <- true

let slot_rec r slot =
  match Hashtbl.find_opt r.r_slots slot with
  | Some rec_ -> rec_
  | None ->
      let n = r.r_config.layering.Layering.groups in
      let rec_ =
        {
          per_group =
            Array.init n (fun _ ->
                { count = 0; last_seq = None; saw_last = false });
          top_recv = Threshold.receiver_create ~levels:n;
          inc_recv = Threshold.receiver_create ~levels:(max 1 (n - 1));
          mask = 0;
        }
      in
      Hashtbl.replace r.r_slots slot rec_;
      rec_

let effective_level r slot =
  let rec climb e =
    if e >= r.r_level then r.r_level
    else if r.r_active_since.(e) <= slot then climb (e + 1)
    else e
  in
  if r.r_active_since.(0) <= slot then climb 1 else 0

(* Expected packets of a group this slot, falling back to the rate-based
   estimate when even the last packet was lost. *)
let expected r rec_ g =
  let gs = rec_.per_group.(g - 1) in
  match gs.last_seq with
  | Some l when gs.saw_last -> l + 1
  | Some l -> l + 2
  | None ->
      if gs.count > 0 then gs.count + 1
      else
        let config = r.r_config in
        let rate = Layering.layer_rate config.layering ~group:g in
        let originals =
          rate *. config.slot_duration /. float_of_int (config.packet_size * 8)
        in
        max 1
          (int_of_float (originals *. (1. +. config.repair_fraction)))

let loss_rate r rec_ ~upto =
  let exp_total = ref 0 and got_total = ref 0 in
  for g = 1 to upto do
    exp_total := !exp_total + expected r rec_ g;
    got_total := !got_total + rec_.per_group.(g - 1).count
  done;
  if !exp_total = 0 then 0.
  else
    Float.max 0.
      (float_of_int (!exp_total - !got_total) /. float_of_int !exp_total)

(* Quorum for level l given its expected packet count, mirroring the
   sender's construction. *)
let quorum_for r rec_ ~level =
  let n_l = ref 0 in
  for g = 1 to level do
    n_l := !n_l + expected r rec_ g
  done;
  max 1
    (int_of_float
       (ceil ((1. -. threshold r.r_config ~level) *. float_of_int !n_l)))

let eval_slot r slot =
  let config = r.r_config in
  let n = config.layering.Layering.groups in
  let rec_ = slot_rec r slot in
  Metrics.tick "rlm.slots";
  let level_before = r.r_level in
  let g = effective_level r slot in
  if g >= 1 then begin
    let rate_g = loss_rate r rec_ ~upto:g in
    Tfrc.Loss_estimator.update r.r_loss_est ~loss_rate:rate_g;
    let congested = rate_g > threshold config ~level:g in
    if congested then Metrics.tick "rlm.inferred_losses";
    let ladder_target () =
      if congested then begin
        (* Drop to the highest level whose tolerance covers its loss. *)
        let rec descend l =
          if l < 1 then 0
          else if loss_rate r rec_ ~upto:l <= threshold config ~level:l then l
          else descend (l - 1)
        in
        descend (g - 1)
      end
      else if g = r.r_level && g < n && mask_bit rec_.mask (g + 1) then g + 1
      else min g r.r_level
    in
    let equation_target () =
      let p = Tfrc.Loss_estimator.value r.r_loss_est in
      let rtt = Option.value r.r_srtt ~default:0.1 in
      let fair_rate =
        Tfrc.throughput ~packet_bytes:config.packet_size ~rtt ~loss_rate:p
      in
      let desired =
        if fair_rate = infinity then n
        else max 1 (Layering.fair_level config.layering ~rate_bps:fair_rate)
      in
      if desired > g then
        (* Upgrades remain gated by increase-key authorization. *)
        if g = r.r_level && g < n && mask_bit rec_.mask (g + 1) then g + 1
        else min g r.r_level
      else desired
    in
    let target =
      match config.policy with
      | Ladder -> ladder_target ()
      | Equation -> equation_target ()
    in
    (match (config.mode, r.r_client) with
    | Flid.Robust, Some client ->
        (* Reconstruct a key per group of the target subscription.  The
           quorum estimate mirrors the sender's; an estimate off by a
           lost tail merely under-claims. *)
        let pairs = ref [] in
        let reachable = ref 0 in
        (try
           for l = 1 to min target n do
             let key =
               if l = g + 1 then
                 (* Upgrade: the increase key for level g+1 lives in the
                    inc scheme at index g. *)
                 Threshold.reconstruct rec_.inc_recv ~level:g
                   ~quorum:(quorum_for r rec_ ~level:g)
               else
                 Threshold.reconstruct rec_.top_recv ~level:l
                   ~quorum:(quorum_for r rec_ ~level:l)
             in
             match key with
             | Some k ->
                 pairs := (group_addr config l, k) :: !pairs;
                 reachable := l
             | None -> raise Exit
           done
         with Exit -> ());
        if !pairs <> [] then
          Client.subscribe client ~slot:(slot + 2) ~pairs:!pairs;
        let next = !reachable in
        if next = 0 then begin
          Client.session_join client ~group:(group_addr config 1);
          r.r_active_since.(0) <- slot + 3;
          r.r_level <- 1
        end
        else begin
          if next > r.r_level then r.r_active_since.(next - 1) <- slot + 2;
          if next < r.r_level then begin
            let dropped =
              List.init (r.r_level - next) (fun i -> group_addr config (next + i + 1))
            in
            Client.unsubscribe client ~groups:dropped;
            for l = next + 1 to r.r_level do
              r.r_active_since.(l - 1) <- max_int
            done
          end;
          r.r_level <- next
        end
    | Flid.Plain, _ | Flid.Robust, None ->
        let next = if target = 0 then 1 else target in
        if next > r.r_level then begin
          for l = r.r_level + 1 to next do
            Multicast.host_join r.r_topo ~host:r.r_host
              ~group:(group_addr config l);
            r.r_active_since.(l - 1) <- slot + 2
          done
        end
        else if next < r.r_level then
          for l = next + 1 to r.r_level do
            Multicast.host_leave r.r_topo ~host:r.r_host
              ~group:(group_addr config l);
            r.r_active_since.(l - 1) <- max_int
          done;
        r.r_level <- next)
  end;
  let delta = r.r_level - level_before in
  if delta <> 0 then begin
    Metrics.tick "rlm.level_changes";
    Metrics.tick (if delta > 0 then "rlm.joins" else "rlm.leaves") ~by:(abs delta);
    if Tracer.enabled () then
      Tracer.emit ~sim_time:(Sim.now (Topology.sim r.r_topo))
        ~component:"rlm.receiver" ~event:"level" (fun () ->
          [
            ("host", Json.Int r.r_host.Node.id);
            ("level", Json.Int r.r_level);
          ])
  end;
  let stale =
    Hashtbl.fold (fun s _ acc -> if s <= slot then s :: acc else acc) r.r_slots []
  in
  List.iter (Hashtbl.remove r.r_slots) stale

let slot_closed r slot =
  let effective = effective_level r slot in
  effective >= 1
  &&
  let rec check g =
    if g > effective then true
    else
      (r.r_highest.(g - 1) > slot
      ||
      match Hashtbl.find_opt r.r_slots slot with
      | Some rec_ -> rec_.per_group.(g - 1).saw_last
      | None -> false)
      && check (g + 1)
  in
  check 1

let rec try_eval r =
  if (not r.r_stopped) && slot_closed r r.r_next_eval then begin
    let slot = r.r_next_eval in
    eval_slot r slot;
    r.r_next_eval <- slot + 1;
    try_eval r
  end

let rec schedule_eval r =
  if not r.r_stopped then begin
    let sim = Topology.sim r.r_topo in
    let config = r.r_config in
    let slot = r.r_next_eval in
    let at =
      r.r_base
      +. (float_of_int (slot + 1) *. config.slot_duration)
      +. (config.processing_margin *. config.slot_duration)
    in
    let at = Float.max at (Sim.now sim) in
    Sim.post sim ~at (fun () ->
           if not r.r_stopped then begin
             if r.r_next_eval = slot then begin
               eval_slot r slot;
               r.r_next_eval <- slot + 1;
               try_eval r
             end;
             schedule_eval r
           end)
  end

let on_data r pkt =
  match pkt.Packet.payload with
  | Rlm_data { session; group; slot; seq; last; repair = _; upgrade_mask;
               top_shares; inc_shares }
    when session = r.r_config.id ->
      let now = Sim.now (Topology.sim r.r_topo) in
      Meter.record r.r_meter ~time:now ~bytes:pkt.Packet.size;
      let candidate_base =
        now -. (float_of_int slot *. r.r_config.slot_duration)
      in
      if not r.r_synced then begin
        r.r_synced <- true;
        r.r_base <- candidate_base;
        r.r_next_eval <- slot + 1;
        if r.r_active_since.(0) = max_int then
          r.r_active_since.(0) <- slot + 1;
        schedule_eval r
      end
      else r.r_base <- Float.min r.r_base candidate_base;
      r.r_highest.(group - 1) <- max r.r_highest.(group - 1) slot;
      if slot >= r.r_next_eval then begin
        let rec_ = slot_rec r slot in
        let gs = rec_.per_group.(group - 1) in
        gs.count <- gs.count + 1;
        if last then begin
          gs.saw_last <- true;
          gs.last_seq <- Some seq
        end;
        rec_.mask <- rec_.mask lor upgrade_mask;
        Threshold.on_shares rec_.top_recv top_shares;
        Threshold.on_shares rec_.inc_recv
          (List.map (fun (target, share) -> (target - 1, share)) inc_shares)
      end;
      try_eval r
  | _ -> ()

let receiver_start ?(at = 0.) topo ~host ~prng config =
  let n = config.layering.Layering.groups in
  let r =
    {
      r_config = config;
      r_topo = topo;
      r_host = host;
      r_prng = prng;
      r_meter = Meter.create ();
      r_level = 1;
      r_active_since = Array.make n max_int;
      r_slots = Hashtbl.create 8;
      r_base = infinity;
      r_synced = false;
      r_next_eval = 0;
      r_highest = Array.make n (-1);
      r_client =
        (match config.mode with
        | Flid.Robust -> Some (Client.create ~width:31 topo ~host)
        | Flid.Plain -> None);
      r_loss_est = Tfrc.Loss_estimator.create ();
      r_srtt = None;
      r_stopped = false;
    }
  in
  if Timeseries.enabled () then begin
    let name suffix =
      Printf.sprintf "rlm.s%d.h%d.%s" config.id host.Node.id suffix
    in
    Timeseries.sample_rate ~scale:0.008 (name "goodput_kbps") (fun () ->
        float_of_int (Meter.total_bytes r.r_meter));
    Timeseries.sample_gauge (name "level") (fun () -> float_of_int r.r_level)
  end;
  ignore r.r_prng;
  (match config.policy with
  | Equation ->
      (* RTT probing toward the session source, one probe per second. *)
      Node.add_unicast_handler host (fun pkt ->
          match pkt.Packet.payload with
          | Rtt_echo { session; receiver; sent_at }
            when session = config.id && receiver = host.Node.id ->
              let sample = Sim.now (Topology.sim topo) -. sent_at in
              (r.r_srtt <-
                (match r.r_srtt with
                | None -> Some sample
                | Some srtt -> Some ((0.875 *. srtt) +. (0.125 *. sample))));
              true
          | _ -> false);
      ignore
        (Sim.every (Topology.sim topo) ~start:(at +. 0.1) ~period:1.0
           (fun () ->
             if not r.r_stopped then
               match Topology.group_source topo (group_addr config 1) with
               | Some source ->
                   Node.originate host
                     (Packet.make ~src:host.Node.id
                        ~dst:(Packet.Unicast source.Node.id) ~size:40
                        (Rtt_probe
                           {
                             session = config.id;
                             receiver = host.Node.id;
                             sent_at = Sim.now (Topology.sim topo);
                           }))
               | None -> ()))
  | Ladder -> ());
  for g = 1 to n do
    Node.subscribe_local host ~group:(group_addr config g) (on_data r)
  done;
  Sim.post (Topology.sim topo) ~at (fun () ->
         match (config.mode, r.r_client) with
         | Flid.Plain, _ ->
             Multicast.host_join topo ~host ~group:(group_addr config 1)
         | Flid.Robust, Some client ->
             Client.session_join client ~group:(group_addr config 1)
         | Flid.Robust, None -> ());
  r
