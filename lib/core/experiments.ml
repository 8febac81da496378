module Flid = Mcc_mcast.Flid
module Layering = Mcc_mcast.Layering
module Meter = Mcc_util.Meter
module Tcp = Mcc_transport.Tcp
module Overhead = Mcc_delta.Overhead
module Prng = Mcc_util.Prng

type series = (float * float) list

let smooth meter = Meter.smoothed_kbps meter ~window:5.0

(* --- Figures 1 / 7 ---------------------------------------------------- *)

type attack_result = {
  f1 : series;
  f2 : series;
  t1 : series;
  t2 : series;
  f1_before : float;
  f1_after : float;
  f2_after : float;
  t1_after : float;
  t2_after : float;
}

let run_attack (p : Spec.attack_params) =
  let { Spec.seed; duration; attack_at; mode } = p in
  let t = Scenario.create ~seed ~bottleneck_rate_bps:1_000_000. () in
  let f1 =
    Scenario.add_multicast t ~mode
      ~receivers:[ Scenario.receiver ~behavior:(Flid.Inflate_after attack_at) () ]
      ()
  in
  let f2 = Scenario.add_multicast t ~mode ~receivers:[ Scenario.receiver () ] () in
  let t1 = Scenario.add_tcp t in
  let t2 = Scenario.add_tcp t in
  Scenario.run t ~seconds:duration;
  let m_f1 = Flid.receiver_meter (List.hd f1.Scenario.receivers) in
  let m_f2 = Flid.receiver_meter (List.hd f2.Scenario.receivers) in
  let m_t1 = Tcp.delivered_meter t1 in
  let m_t2 = Tcp.delivered_meter t2 in
  let before_lo = attack_at /. 2. in
  let settle = Float.min 10. (0.1 *. (duration -. attack_at)) in
  {
    f1 = smooth m_f1;
    f2 = smooth m_f2;
    t1 = smooth m_t1;
    t2 = smooth m_t2;
    f1_before = Meter.mean_kbps m_f1 ~lo:before_lo ~hi:attack_at;
    f1_after = Meter.mean_kbps m_f1 ~lo:(attack_at +. settle) ~hi:duration;
    f2_after = Meter.mean_kbps m_f2 ~lo:(attack_at +. settle) ~hi:duration;
    t1_after = Meter.mean_kbps m_t1 ~lo:(attack_at +. settle) ~hi:duration;
    t2_after = Meter.mean_kbps m_t2 ~lo:(attack_at +. settle) ~hi:duration;
  }

(* --- Figures 8a-8d ----------------------------------------------------- *)

type sweep_point = {
  sessions : int;
  individual_kbps : float list;
  average_kbps : float;
}

let run_sweep (p : Spec.sweep_params) =
  let { Spec.seed; duration; sessions; cross_traffic; mode } = p in
  let bottleneck =
    Defaults.fair_share_bps
    *. float_of_int (if cross_traffic then 2 * sessions else sessions)
  in
  let t = Scenario.create ~seed ~bottleneck_rate_bps:bottleneck () in
  let multicast =
    List.init sessions (fun _ ->
        Scenario.add_multicast t ~mode ~receivers:[ Scenario.receiver () ] ())
  in
  if cross_traffic then begin
    for _ = 1 to sessions do
      ignore (Scenario.add_tcp t)
    done;
    ignore
      (Scenario.add_onoff_cbr t ~rate_bps:(0.1 *. bottleneck) ~on_period:5.
         ~off_period:5.)
  end;
  Scenario.run t ~seconds:duration;
  let rates =
    List.map
      (fun session ->
        let meter =
          Flid.receiver_meter (List.hd session.Scenario.receivers)
        in
        (* Skip the first quarter: start-up transient. *)
        Meter.mean_kbps meter ~lo:(duration /. 4.) ~hi:duration)
      multicast
  in
  { sessions; individual_kbps = rates; average_kbps = Mcc_util.Stats.mean rates }

(* --- Figure 8e --------------------------------------------------------- *)

type responsiveness_result = {
  multicast : series;
  burst_start : float;
  burst_stop : float;
  before_kbps : float;
  during_kbps : float;
  after_kbps : float;
}

(* One session with one receiver on a dumbbell.  Figure 8e, the ECN
   study and the FEC, grace, slot and XOR-key ablations differ only in
   the scenario's settings and in [cross], the traffic added after the
   session. *)
let lone_receiver ?ecn ?packet_buffer ?agent_config ?fec_scheme ?slot
    ?(mode = Flid.Robust) ?(cross = ignore) ~seed ~bottleneck_rate_bps
    duration =
  let t =
    Scenario.create ~seed ?ecn ?packet_buffer ?agent_config
      ~bottleneck_rate_bps ()
  in
  let session =
    Scenario.add_multicast ?fec_scheme ?slot t ~mode
      ~receivers:[ Scenario.receiver () ] ()
  in
  cross t;
  Scenario.run t ~seconds:duration;
  ( t,
    session.Scenario.sender,
    Flid.receiver_meter (List.hd session.Scenario.receivers) )

(* An on-off CBR that stays on through [burst_start, burst_stop]. *)
let burst ~burst_start ~burst_stop ~rate_bps t =
  ignore
    (Scenario.add_onoff_cbr t ~at:burst_start ~until:burst_stop ~rate_bps
       ~on_period:(burst_stop -. burst_start) ~off_period:1.)

(* Mean Kbps before, during and after a burst.  Settling margins scale
   with the burst window so abbreviated specs still measure inside it. *)
let burst_windows meter ~burst_start ~burst_stop ~duration =
  let margin = Float.min 5. (0.25 *. (burst_stop -. burst_start)) in
  let tail = Float.min 10. (0.4 *. (duration -. burst_stop)) in
  ( Meter.mean_kbps meter ~lo:(burst_start *. 2. /. 3.) ~hi:burst_start,
    Meter.mean_kbps meter ~lo:(burst_start +. margin) ~hi:burst_stop,
    Meter.mean_kbps meter ~lo:(burst_stop +. tail) ~hi:duration )

let run_responsiveness (p : Spec.responsiveness_params) =
  let { Spec.seed; duration; burst_start; burst_stop; burst_rate_bps; mode } =
    p
  in
  let _, _, meter =
    lone_receiver ~mode ~seed ~bottleneck_rate_bps:1_000_000.
      ~cross:(burst ~burst_start ~burst_stop ~rate_bps:burst_rate_bps)
      duration
  in
  let before_kbps, during_kbps, after_kbps =
    burst_windows meter ~burst_start ~burst_stop ~duration
  in
  {
    multicast = smooth meter;
    burst_start;
    burst_stop;
    before_kbps;
    during_kbps;
    after_kbps;
  }

(* --- Figure 8f --------------------------------------------------------- *)

let run_rtt (p : Spec.rtt_params) =
  let { Spec.seed; duration; receivers; mode } = p in
  (* RTT = 2 * (access + bottleneck(5 ms) + sender access(10 ms)); the
     receiver access delay spreads RTTs over [30 ms, 220 ms]. *)
  let bottleneck_delay_s = 0.005 in
  let rtt_min = 0.030 and rtt_max = 0.220 in
  let specs =
    List.init receivers (fun i ->
        let frac =
          if receivers = 1 then 0.
          else float_of_int i /. float_of_int (receivers - 1)
        in
        let rtt = rtt_min +. (frac *. (rtt_max -. rtt_min)) in
        let access = (rtt /. 2.) -. bottleneck_delay_s -. Defaults.access_delay_s in
        (rtt, Scenario.receiver ~access_delay_s:(Float.max 0.0001 access) ()))
  in
  let t =
    Scenario.create ~seed ~bottleneck_delay_s
      ~bottleneck_rate_bps:Defaults.fair_share_bps ()
  in
  let session =
    Scenario.add_multicast t ~mode ~receivers:(List.map snd specs) ()
  in
  Scenario.run t ~seconds:duration;
  List.map2
    (fun (rtt, _) receiver ->
      let meter = Flid.receiver_meter receiver in
      (rtt *. 1000., Meter.mean_kbps meter ~lo:(duration /. 4.) ~hi:duration))
    specs session.Scenario.receivers

(* --- Figures 8g / 8h --------------------------------------------------- *)

let run_convergence (p : Spec.convergence_params) =
  let { Spec.seed; duration; join_times; mode } = p in
  let t =
    Scenario.create ~seed ~bottleneck_rate_bps:Defaults.fair_share_bps ()
  in
  let session =
    Scenario.add_multicast t ~mode
      ~receivers:(List.map (fun at -> Scenario.receiver ~at ()) join_times)
      ()
  in
  Scenario.run t ~seconds:duration;
  List.map
    (fun receiver ->
      Meter.smoothed_kbps (Flid.receiver_meter receiver) ~window:3.0)
    session.Scenario.receivers

(* --- Incremental deployment (paper Section 3.2.3) ---------------------- *)

type partial_result = {
  protected_attacker_kbps : float;
  unprotected_attacker_kbps : float;
  honest_kbps : float;
}

let run_partial (p : Spec.partial_params) =
  let ({ Spec.seed; duration; attack_at } : Spec.partial_params) = p in
  let module Sim = Mcc_engine.Sim in
  let module Topology = Mcc_net.Topology in
  let module Node = Mcc_net.Node in
  let module Router_agent = Mcc_sigma.Router_agent in
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let prng = Prng.create seed in
  (* Left router, bottleneck, core fan-out to two edge routers: one runs
     SIGMA, the other is a legacy IGMP router. *)
  let left = Topology.add_node topo Node.Core_router in
  let core = Topology.add_node topo Node.Core_router in
  let edge_sigma = Topology.add_node topo Node.Edge_router in
  let edge_legacy = Topology.add_node topo Node.Edge_router in
  let bottleneck_rate = 750_000. (* 3 sessions x 250 kbps fair share *) in
  let rtt = Defaults.path_rtt_s ~bottleneck_delay_s:0.02 ~access_delay_s:0.01 in
  let buffer = Defaults.buffer_bytes ~bottleneck_rate_bps:bottleneck_rate ~rtt_s:rtt in
  let connect ?(rate = Defaults.access_rate_bps) ?(delay = 0.01) a b =
    ignore
      (Topology.connect topo a b ~rate_bps:rate ~delay_s:delay
         ~buffer_bytes:(Defaults.buffer_bytes ~bottleneck_rate_bps:rate ~rtt_s:rtt)
         ())
  in
  ignore
    (Topology.connect topo left core ~rate_bps:bottleneck_rate ~delay_s:0.02
       ~buffer_bytes:buffer ());
  connect core edge_sigma ~delay:0.005;
  connect core edge_legacy ~delay:0.005;
  let agent = Router_agent.attach topo edge_sigma in
  ignore agent;
  let host_behind edge =
    let h = Topology.add_node topo Node.Host in
    connect h edge;
    h
  in
  let make_session ~id ~edge ~receiver_mode ~behavior =
    let sender_host = Topology.add_node topo Node.Host in
    connect sender_host left;
    let layering = Defaults.layering () in
    let config =
      Flid.make_config ~id ~base_group:(0x7000 + (id * 32)) ~layering
        ~slot_duration:Defaults.flid_ds_slot ~mode:Flid.Robust ()
    in
    let _sender =
      Flid.sender_start topo ~node:sender_host ~prng:(Prng.split prng) config
    in
    (* A receiver behind a legacy router falls back to IGMP: model it as
       a Plain-mode receiver of the same (Robust) session, exactly the
       paper's incremental-deployment story. *)
    let receiver_config = { config with Flid.mode = receiver_mode } in
    let host = host_behind edge in
    Flid.receiver_start ~behavior topo ~host ~prng:(Prng.split prng)
      receiver_config
  in
  let protected_attacker =
    make_session ~id:1 ~edge:edge_sigma ~receiver_mode:Flid.Robust
      ~behavior:(Flid.Inflate_after attack_at)
  in
  let unprotected_attacker =
    make_session ~id:2 ~edge:edge_legacy ~receiver_mode:Flid.Plain
      ~behavior:(Flid.Inflate_after attack_at)
  in
  let honest =
    make_session ~id:3 ~edge:edge_sigma ~receiver_mode:Flid.Robust
      ~behavior:Flid.Well_behaved
  in
  Topology.compute_routes topo;
  Sim.run_until sim duration;
  let settle = Float.min 10. (0.25 *. (duration -. attack_at)) in
  let after r =
    Meter.mean_kbps (Flid.receiver_meter r) ~lo:(attack_at +. settle) ~hi:duration
  in
  {
    protected_attacker_kbps = after protected_attacker;
    unprotected_attacker_kbps = after unprotected_attacker;
    honest_kbps = after honest;
  }

(* --- Figures 9a / 9b --------------------------------------------------- *)

type overhead_point = {
  x : float;
  delta_analytic : float;
  sigma_analytic : float;
  delta_measured : float;
  sigma_measured : float;
}

(* The paper's overhead experiment: cumulative rate R = 4 Mbps, minimal
   group 100 Kbps, 500-byte (s = 4000 bits) packets, 16-bit keys, 8-bit
   slot numbers, FEC overcoming 50% loss. *)
let run_overhead (p : Spec.overhead_params) =
  let { Spec.seed; duration; groups; slot; axis } = p in
  let r = 100_000. and cumulative = 4_000_000. in
  let factor =
    if groups = 1 then 2.
    else (cumulative /. r) ** (1. /. float_of_int (groups - 1))
  in
  let layering = Layering.make ~groups ~min_rate_bps:r ~factor in
  let t =
    Scenario.create ~seed ~bottleneck_rate_bps:(2. *. cumulative) ()
  in
  (* The overhead analysis uses 500-byte (s = 4000 bits) data packets. *)
  let packet_size = 500 in
  let session =
    Scenario.add_multicast t ~mode:Flid.Robust ~slot ~layering ~packet_size
      ~receivers:[ Scenario.receiver () ]
      ()
  in
  Scenario.run t ~seconds:duration;
  let stats = Flid.sender_stats session.Scenario.sender in
  let slots = max 1 stats.Flid.slots in
  let upgrade_freq =
    Array.init (max 0 (groups - 1)) (fun i ->
        float_of_int stats.Flid.authorizations.(i + 1) /. float_of_int slots)
  in
  let params =
    {
      Overhead.groups;
      min_rate_bps = r;
      rate_factor = factor;
      slot;
      data_bits = packet_size * 8;
      key_bits = 16;
      slot_number_bits = 8;
      fec_expansion = stats.Flid.fec_expansion;
      header_bits =
        (if slots = 0 then 0 else stats.Flid.sigma_header_bits / slots);
      upgrade_freq;
    }
  in
  let measured_delta =
    if stats.Flid.data_bits = 0 then 0.
    else float_of_int stats.Flid.delta_bits /. float_of_int stats.Flid.data_bits
  in
  let measured_sigma =
    if stats.Flid.data_bits = 0 then 0.
    else
      float_of_int (stats.Flid.sigma_payload_bits + stats.Flid.sigma_header_bits)
      /. float_of_int stats.Flid.data_bits
  in
  {
    x = (match axis with Spec.Groups -> float_of_int groups | Spec.Slot -> slot);
    delta_analytic = 100. *. Overhead.delta_overhead params;
    sigma_analytic = 100. *. Overhead.sigma_overhead params;
    delta_measured = 100. *. measured_delta;
    sigma_measured = 100. *. measured_sigma;
  }

(* --- Adversary cells (defence-evaluation matrix) ------------------------ *)

type adversary_result = {
  honest_before_kbps : float;  (** honest receiver before the attack *)
  honest_after_kbps : float;  (** honest receiver once the attack runs *)
  honest_loss_pct : float;  (** 100 * (1 - after / before), clamped at 0 *)
  attacker_kbps : float;  (** adversary goodput during the attack *)
  attacker_gain : float;  (** attacker_kbps / fair share *)
  containment_s : float option;
      (** seconds from attack start until the adversary's goodput drops
          to (and stays within) 1.5 fair shares; None = never contained *)
  tcp_kbps : float;  (** the competing TCP flow during the attack *)
  keys_rejected : int;  (** edge-router stats; 0 without an agent *)
  lockouts : int;
  grace_admissions : int;
}

(* The cell runner lives in Mcc_attack (it needs Scenario *and* the
   strategy library), which depends on this library; the dispatch below
   reaches it through this hook, registered when Mcc_attack.Matrix is
   linked. *)
let adversary_impl : (Spec.adversary_params -> adversary_result) option Atomic.t =
  Atomic.make None

let set_adversary_impl f = Atomic.set adversary_impl (Some f)

let run_adversary p =
  match Atomic.get adversary_impl with
  | Some f -> f p
  | None ->
      failwith
        "Spec.Adversary requires the attack subsystem: link the mcc_attack \
         library (module Mcc_attack.Matrix) into the executable"

(* --- Declarative workloads --------------------------------------------- *)

type workload_result = {
  w_nodes : int;  (** nodes in the generated topology *)
  w_links : int;
  w_receivers : int;  (** receiver instances started (churn included) *)
  w_mean_goodput_kbps : float;
      (** mean over receivers of each receiver's goodput over its own
          active window (post-warmup) *)
  w_min_goodput_kbps : float;
  w_max_goodput_kbps : float;
  w_cross_kbps : float;  (** background traffic delivered, all flows *)
  w_attacker_kbps : float;  (** 0 without an attack *)
  w_drops : int;  (** queue drops summed over every link *)
  w_marks : int;  (** ECN marks summed over every link *)
  w_keys_rejected : int;  (** edge-agent stats; 0 without SIGMA *)
  w_lockouts : int;
}

(* Like the adversary hook: the workload builder lives in Mcc_workload
   (it needs the topology generators and every protocol), which depends
   on this library; dispatch reaches it through this hook, registered
   when Mcc_workload.Build is linked. *)
let workload_impl : (Spec.workload_params -> workload_result) option Atomic.t =
  Atomic.make None

let set_workload_impl f = Atomic.set workload_impl (Some f)

let run_workload p =
  match Atomic.get workload_impl with
  | Some f -> f p
  | None ->
      failwith
        "Spec.Workload requires the workload subsystem: link the mcc_workload \
         library (module Mcc_workload.Build) into the executable"

(* --- Studies beyond the figures ------------------------------------------ *)

let pct num den = 100. *. float_of_int num /. float_of_int (max 1 den)

(* One session of each protocol family plus one TCP flow on a bottleneck
   provisioned at 250 kbps per flow; Jain's index over the five. *)
let protocol_mix ~seed ~duration ~mean =
  let module Rep = Mcc_mcast.Replicated_proto in
  let module Rlm = Mcc_mcast.Rlm_like in
  let t = Scenario.create ~seed ~bottleneck_rate_bps:1_250_000. () in
  let one () = [ Scenario.receiver () ] in
  let flid = Scenario.add_multicast t ~mode:Flid.Robust ~receivers:(one ()) () in
  let rep = Scenario.add_replicated t ~mode:Flid.Robust ~receivers:(one ()) () in
  let ladder = Scenario.add_rlm t ~mode:Flid.Robust ~receivers:(one ()) () in
  let webrc =
    Scenario.add_rlm ~policy:Rlm.Equation t ~mode:Flid.Robust
      ~receivers:(one ()) ()
  in
  let tcp = Scenario.add_tcp t in
  Scenario.run t ~seconds:duration;
  let rows =
    [
      ("flid_ds_kbps", mean (Flid.receiver_meter (List.hd flid.Scenario.receivers)));
      ( "replicated_kbps",
        mean (Rep.receiver_meter (List.hd rep.Scenario.rep_receivers)) );
      ( "rlm_ladder_kbps",
        mean (Rlm.receiver_meter (List.hd ladder.Scenario.rlm_receivers)) );
      ( "webrc_equation_kbps",
        mean (Rlm.receiver_meter (List.hd webrc.Scenario.rlm_receivers)) );
      ("tcp_reno_kbps", mean (Tcp.delivered_meter tcp));
    ]
  in
  rows @ [ ("jain_index", Mcc_util.Stats.jain_fairness (List.map snd rows)) ]

(* Receiver B, behind a 150 kbps access link, replays the keys its
   clean-path accomplice A reconstructs.  Plain SIGMA honours them and
   floods B's link with A's whole subscription; interface-specific keys
   make the replay worthless. *)
let key_passing ~seed ~duration ~interface_keys =
  let module Router_agent = Mcc_sigma.Router_agent in
  let module Node = Mcc_net.Node in
  let module Link = Mcc_net.Link in
  let agent_config =
    { Router_agent.default_config with Router_agent.interface_keys }
  in
  let access_rate_bps = 150_000. in
  let t =
    Scenario.create ~seed ~agent_config ~bottleneck_rate_bps:2_000_000. ()
  in
  let session =
    Scenario.add_multicast t ~mode:Flid.Robust
      ~receivers:[ Scenario.receiver (); Scenario.receiver ~access_rate_bps () ]
      ()
  in
  let accomplice = List.hd session.Scenario.receivers in
  Flid.set_colluder (List.nth session.Scenario.receivers 1) ~source:accomplice;
  Scenario.run t ~seconds:duration;
  let agent = Option.get (Scenario.agent t) in
  let topo = (Scenario.dumbbell t).Dumbbell.topo in
  let colluder_host =
    List.find
      (fun (n : Node.t) ->
        n.Node.kind = Node.Host
        && List.exists
             (fun (l : Link.t) -> Float.equal l.Link.rate_bps access_rate_bps)
             n.Node.links)
      (Mcc_net.Topology.nodes topo)
  in
  let open_groups =
    List.filter
      (fun g ->
        Router_agent.iface_active agent
          ~group:(Flid.group_addr session.Scenario.config g)
          ~toward:colluder_host.Node.id)
      (List.init Defaults.groups (fun i -> i + 1))
  in
  let drops =
    match Mcc_net.Multicast.router_of topo colluder_host with
    | _, Some link -> link.Link.counts.drops
    | _, None -> -1
  in
  [
    ("accomplice_level", float_of_int (Flid.receiver_level accomplice));
    ("groups_open_to_colluder", float_of_int (List.length open_groups));
    ("colluder_access_drops", float_of_int drops);
  ]

(* Three honest receivers, each subscribing one layer past its
   sustainable rate and backing off on the EWMA of the mark fraction. *)
let oversub_receivers ~seed ~duration ~mean =
  let module Oversub = Mcc_mcast.Oversub in
  let t =
    Scenario.create ~seed ~ecn:true ~bottleneck_rate_bps:1_000_000. ()
  in
  let _, _, receivers =
    Scenario.add_session (module Protocol.Oversub) t ~mode:Flid.Robust
      ~receivers:(List.init 3 (fun _ -> Scenario.receiver ()))
      ()
  in
  Scenario.run t ~seconds:duration;
  List.concat
    (List.mapi
       (fun i r ->
         let key = Printf.sprintf "r%d_%s" i in
         [
           (key "level", float_of_int (Oversub.receiver_level r));
           (key "kbps", mean (Oversub.receiver_meter r));
           (key "mark_ewma", Oversub.mark_ewma r);
           (key "decreases", float_of_int (Oversub.decrease_events r));
         ])
       receivers)

(* The Shamir threshold instantiation's in-band share bits, as a
   percentage of data bits: one RLM-like session behind a SIGMA edge. *)
let shamir_overhead ~seed ~duration =
  let module Rlm = Mcc_mcast.Rlm_like in
  let t = Scenario.create ~seed ~bottleneck_rate_bps:500_000. () in
  let s =
    Scenario.add_rlm t ~mode:Flid.Robust ~receivers:[ Scenario.receiver () ] ()
  in
  Scenario.run t ~seconds:duration;
  let sender = s.Scenario.rlm_sender in
  pct (Rlm.share_overhead_bits sender) (Rlm.data_bits sender)

let run_study (p : Spec.study_params) =
  let { Spec.seed; duration; warmup; study } = p in
  let mean meter = Meter.mean_kbps meter ~lo:warmup ~hi:duration in
  match study with
  | Spec.Protocol_mix -> protocol_mix ~seed ~duration ~mean
  | Spec.Key_passing { interface_keys } ->
      key_passing ~seed ~duration ~interface_keys
  | Spec.Oversub_receivers -> oversub_receivers ~seed ~duration ~mean
  | Spec.Ecn_signal { ecn } ->
      let t, _, meter =
        lone_receiver ~ecn ~seed ~bottleneck_rate_bps:Defaults.fair_share_bps
          duration
      in
      let link = (Scenario.dumbbell t).Dumbbell.forward in
      [
        ("honest_kbps", mean meter);
        ("bottleneck_drops", float_of_int link.Mcc_net.Link.counts.drops);
        ("marks", float_of_int link.Mcc_net.Link.counts.marks);
      ]
  | Spec.Fec_scheme { scheme } ->
      (* A CBR at the full bottleneck rate keeps the packet-count queue
         solid during bursts, so even the small special packets drop
         and the keystore stays complete only through FEC; its gaps
         show as guesses of honest keys. *)
      let t, sender, meter =
        lone_receiver ~packet_buffer:true ~fec_scheme:scheme ~seed
          ~bottleneck_rate_bps:500_000.
          ~cross:(fun t ->
            ignore
              (Scenario.add_onoff_cbr t ~rate_bps:500_000. ~on_period:2.
                 ~off_period:3.))
          duration
      in
      let misses =
        Option.fold ~none:0 ~some:Mcc_sigma.Router_agent.total_guesses
          (Scenario.agent t)
      in
      [
        ("honest_kbps", mean meter);
        ("keystore_misses", float_of_int misses);
        ("fec_expansion", (Flid.sender_stats sender).Flid.fec_expansion);
      ]
  | Spec.Upgrade_grace { grace_slots } ->
      let agent_config =
        { Mcc_sigma.Router_agent.default_config with
          Mcc_sigma.Router_agent.upgrade_grace_slots = grace_slots }
      in
      let _, _, meter =
        lone_receiver ~agent_config ~seed
          ~bottleneck_rate_bps:Defaults.fair_share_bps duration
      in
      [ ("honest_kbps", mean meter) ]
  | Spec.Slot_length { slot; burst_start; burst_stop } ->
      let _, sender, meter =
        lone_receiver ~slot ~seed ~bottleneck_rate_bps:1_000_000.
          ~cross:(burst ~burst_start ~burst_stop ~rate_bps:800_000.)
          duration
      in
      let before, during, after =
        burst_windows meter ~burst_start ~burst_stop ~duration
      in
      let s = Flid.sender_stats sender in
      [
        ("before_kbps", before);
        ("during_kbps", during);
        ("after_kbps", after);
        ( "sigma_overhead_pct",
          pct (s.Flid.sigma_payload_bits + s.Flid.sigma_header_bits)
            s.Flid.data_bits );
      ]
  | Spec.Key_material { shamir = false } ->
      let _, sender, _ =
        lone_receiver ~seed ~bottleneck_rate_bps:500_000. duration
      in
      let s = Flid.sender_stats sender in
      [ ("key_overhead_pct", pct s.Flid.delta_bits s.Flid.data_bits) ]
  | Spec.Key_material { shamir = true } ->
      [ ("key_overhead_pct", shamir_overhead ~seed ~duration) ]

(* --- Spec dispatch ------------------------------------------------------ *)

type result =
  | Attack of attack_result
  | Sweep_point of sweep_point
  | Responsiveness of responsiveness_result
  | Rtt of (float * float) list
  | Convergence of series list
  | Overhead of overhead_point
  | Partial of partial_result
  | Adversary of adversary_result
  | Workload of workload_result
  | Study of (string * float) list

let run = function
  | Spec.Attack p -> Attack (run_attack p)
  | Spec.Sweep p -> Sweep_point (run_sweep p)
  | Spec.Responsiveness p -> Responsiveness (run_responsiveness p)
  | Spec.Rtt p -> Rtt (run_rtt p)
  | Spec.Convergence p -> Convergence (run_convergence p)
  | Spec.Overhead p -> Overhead (run_overhead p)
  | Spec.Partial p -> Partial (run_partial p)
  | Spec.Adversary p -> Adversary (run_adversary p)
  | Spec.Workload p -> Workload (run_workload p)
  | Spec.Study p -> Study (run_study p)
