module Sim = Mcc_engine.Sim
module Topology = Mcc_net.Topology
module Node = Mcc_net.Node
module Link = Mcc_net.Link
module Prng = Mcc_util.Prng
module Meter = Mcc_util.Meter
module Spec = Mcc_core.Spec
module Experiments = Mcc_core.Experiments
module Defaults = Mcc_core.Defaults
module Scenario = Mcc_core.Scenario
module Router_agent = Mcc_sigma.Router_agent
module Flid = Mcc_mcast.Flid
module Strategy = Mcc_attack.Strategy

(* One receiver instance realised from a churn interval: its goodput
   meter plus the active window it should be judged over. *)
type instance = { meter : Meter.t; lo : float; hi : float }

let run (p : Spec.workload_params) : Experiments.workload_result =
  let d = Spec.deployment p.Spec.defence in
  let mode = d.Spec.sender_mode in
  (* FLID's slot for the mode, whatever the protocol: a Plain session of
     any protocol runs 500 ms slots here, where the matrix gives the
     protocol's own default. *)
  let slot =
    match mode with
    | Flid.Plain -> Defaults.flid_dl_slot
    | Flid.Robust -> Defaults.flid_ds_slot
  in
  (* One master stream, split in a fixed order so every stochastic
     element owns an independent deterministic stream. *)
  let prng = Prng.create p.Spec.seed in
  let topo_prng = Prng.split prng in
  let churn_prng = Prng.split prng in
  let traffic_prng = Prng.split prng in
  let sim = Sim.create () in
  let hosts = Churn.hosts_needed ~spec:p.Spec.churn ~receivers:p.Spec.receivers in
  let built =
    Topo_gen.build ~ecn:d.Spec.ecn sim ~prng:topo_prng ~spec:p.Spec.topology
      ~hosts
  in
  let topo = built.Topo_gen.topo in
  (* SIGMA agents on every receiver-side edge router, each with its own
     scrubber stream — the per-edge equivalent of the dumbbell
     scenario's single agent. *)
  let agents =
    if d.Spec.sigma then
      let config =
        { Router_agent.default_config with Router_agent.interface_keys = true }
      in
      List.map
        (fun edge -> Scenario.sigma_edge ~config topo edge (Prng.split prng))
        built.Topo_gen.edges
    else []
  in
  let layering = Defaults.layering () in
  (* The protocol's module: the sender goes up immediately; [start]
     realises one receiver instance, [leave] is its departure (protocols
     without an explicit leave decay via key expiry). *)
  let module P = (val Spec.impl p.Spec.protocol) in
  let config =
    P.make ~id:1 ~base_group:0x1000 ~layering ~slot_duration:slot ~mode
  in
  let rconfig =
    match d.Spec.receiver_mode with
    | Some m -> P.with_mode config m
    | None -> config
  in
  ignore
    (P.sender_start topo ~node:built.Topo_gen.sender ~prng:(Prng.split prng)
       config);
  let start ~at ~host =
    let r = P.receiver_start ~at topo ~host ~prng:(Prng.split prng) rconfig in
    (P.receiver_meter r, fun () -> P.receiver_leave r)
  in
  let group_addrs =
    List.init layering.Mcc_mcast.Layering.groups (fun g ->
        P.group_addr config (g + 1))
  in
  (* Membership timeline: one fresh receiver instance per interval. *)
  let intervals =
    Churn.plan churn_prng ~spec:p.Spec.churn ~receivers:p.Spec.receivers
      ~duration:p.Spec.duration
  in
  let pool = Array.of_list built.Topo_gen.pool in
  let instances =
    List.map
      (fun { Churn.host; at; until } ->
        let meter, leave = start ~at ~host:pool.(host) in
        let hi =
          match until with
          | Some u when u < p.Spec.duration ->
              Sim.post sim ~at:u leave;
              u
          | _ -> p.Spec.duration
        in
        { meter; lo = at; hi })
      intervals
  in
  (* Background cross traffic. *)
  let traffic =
    Traffic.install built ~prng:traffic_prng ~duration:p.Spec.duration
      ~specs:p.Spec.traffic
  in
  (* The adversary, when the workload mounts one: a standalone bare
     attacker on its own host behind the first receiver-side edge, as
     in the matrix cells for member-less protocols. *)
  let attacker_meter =
    match p.Spec.attack with
    | None -> None
    | Some kind ->
        let host = Topology.add_node topo Node.Host in
        Topo_gen.access_link topo (List.hd built.Topo_gen.edges) host;
        Some
          (Strategy.launch_bare topo ~host
             ~prng:(Prng.create ((p.Spec.seed * 7919) + 13))
             ~groups:group_addrs ~slot_duration:slot ~sigma:d.Spec.sigma
             ~attack_at:p.Spec.attack_at kind)
  in
  Topology.compute_routes topo;
  Sim.run_until sim p.Spec.duration;
  (* Aggregation. *)
  let goodputs =
    List.filter_map
      (fun i ->
        if i.hi -. i.lo <= 0. then None
        else Some (Meter.mean_kbps i.meter ~lo:i.lo ~hi:i.hi))
      instances
  in
  let mean xs =
    match xs with
    | [] -> 0.
    | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
  in
  let fold_min = List.fold_left Float.min infinity in
  let fold_max = List.fold_left Float.max neg_infinity in
  let drops, marks =
    List.fold_left
      (fun (d, m) (l : Link.t) ->
        (d + l.Link.counts.drops, m + l.Link.counts.marks))
      (0, 0) (Topology.links topo)
  in
  let keys_rejected, lockouts =
    List.fold_left
      (fun (k, l) agent ->
        let s = Router_agent.stats agent in
        (k + s.Router_agent.keys_rejected, l + s.Router_agent.lockouts))
      (0, 0) agents
  in
  {
    Experiments.w_nodes = List.length (Topology.nodes topo);
    w_links = List.length (Topology.links topo);
    w_receivers = List.length instances;
    w_mean_goodput_kbps = mean goodputs;
    w_min_goodput_kbps = (if goodputs = [] then 0. else fold_min goodputs);
    w_max_goodput_kbps = (if goodputs = [] then 0. else fold_max goodputs);
    w_cross_kbps =
      List.fold_left
        (fun acc m -> acc +. Meter.mean_kbps m ~lo:0. ~hi:p.Spec.duration)
        0. traffic.Traffic.delivered;
    w_attacker_kbps =
      (match attacker_meter with
      | None -> 0.
      | Some m -> Meter.mean_kbps m ~lo:p.Spec.attack_at ~hi:p.Spec.duration);
    w_drops = drops;
    w_marks = marks;
    w_keys_rejected = keys_rejected;
    w_lockouts = lockouts;
  }

(* Register as the Spec.Workload implementation: linking this module
   makes workload specs runnable through the ordinary Experiments/
   Runner machinery (and therefore through every sink, the matrix-style
   parallel runner, and the ledger). *)
let () = Experiments.set_workload_impl run
