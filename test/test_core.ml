module Sim = Mcc_engine.Sim
module Defaults = Mcc_core.Defaults
module Dumbbell = Mcc_core.Dumbbell
module Scenario = Mcc_core.Scenario
module E = Mcc_core.Experiments
module Spec = Mcc_core.Spec
module Flid = Mcc_mcast.Flid
module Node = Mcc_net.Node
module Link = Mcc_net.Link
module Meter = Mcc_util.Meter

let test_defaults_math () =
  let rtt =
    Defaults.path_rtt_s ~bottleneck_delay_s:0.020 ~access_delay_s:0.010
  in
  Alcotest.(check (float 1e-9)) "standard RTT 80 ms" 0.080 rtt;
  (* 2 x 1 Mbps x 80 ms = 20 kB *)
  Alcotest.(check int) "buffer 2 BDP" 20_000
    (Defaults.buffer_bytes ~bottleneck_rate_bps:1_000_000. ~rtt_s:0.080)

let test_dumbbell_structure () =
  let sim = Sim.create () in
  let db = Dumbbell.create sim ~bottleneck_rate_bps:1_000_000. () in
  let s1 = Dumbbell.add_sender db in
  let s2 = Dumbbell.add_sender db in
  let d1 = Dumbbell.add_receiver db in
  Dumbbell.finalize db;
  (* Any sender-to-receiver route crosses the bottleneck. *)
  let via_bottleneck src =
    match Node.route src d1.Node.id with
    | Some link -> link.Link.dst = db.Dumbbell.left.Node.id
    | None -> false
  in
  Alcotest.(check bool) "s1 via left router" true (via_bottleneck s1);
  Alcotest.(check bool) "s2 via left router" true (via_bottleneck s2);
  (match Node.route db.Dumbbell.left d1.Node.id with
  | Some link ->
      Alcotest.(check int) "left routes via bottleneck"
        db.Dumbbell.right.Node.id link.Link.dst
  | None -> Alcotest.fail "no route");
  Alcotest.(check (float 1.)) "bottleneck rate" 1_000_000.
    db.Dumbbell.forward.Link.rate_bps

let test_dumbbell_receiver_lan () =
  let sim = Sim.create () in
  let db = Dumbbell.create sim ~bottleneck_rate_bps:1_000_000. () in
  let lan, hosts = Dumbbell.add_receiver_lan db ~hosts:3 in
  Dumbbell.finalize db;
  Alcotest.(check int) "three hosts" 3 (List.length hosts);
  Alcotest.(check bool) "lan node kind" true (lan.Node.kind = Node.Lan);
  (* All LAN hosts resolve to the same edge-router interface. *)
  let ifaces =
    List.filter_map
      (fun h ->
        match Mcc_net.Multicast.router_of db.Dumbbell.topo h with
        | Some _, Some link -> Some link.Link.id
        | _ -> None)
      hosts
  in
  Alcotest.(check int) "all resolved" 3 (List.length ifaces);
  Alcotest.(check bool) "single shared interface" true
    (List.for_all (fun i -> i = List.hd ifaces) ifaces)

let test_scenario_agent_only_for_robust () =
  let t = Scenario.create ~bottleneck_rate_bps:500_000. () in
  ignore
    (Scenario.add_multicast t ~mode:Flid.Plain
       ~receivers:[ Scenario.receiver () ] ());
  Alcotest.(check bool) "no agent for plain" true (Scenario.agent t = None);
  ignore
    (Scenario.add_multicast t ~mode:Flid.Robust
       ~receivers:[ Scenario.receiver () ] ());
  Alcotest.(check bool) "agent after robust" true (Scenario.agent t <> None)

let test_scenario_unique_sessions () =
  let t = Scenario.create ~bottleneck_rate_bps:500_000. () in
  let a =
    Scenario.add_multicast t ~mode:Flid.Plain ~receivers:[ Scenario.receiver () ] ()
  in
  let b =
    Scenario.add_multicast t ~mode:Flid.Plain ~receivers:[ Scenario.receiver () ] ()
  in
  Alcotest.(check bool) "distinct ids" true
    (a.Scenario.config.Flid.id <> b.Scenario.config.Flid.id);
  (* Group address ranges must not overlap. *)
  let range (s : Scenario.session) =
    let base = s.Scenario.config.Flid.base_group in
    (base, base + Defaults.groups - 1)
  in
  let a_lo, a_hi = range a and b_lo, b_hi = range b in
  Alcotest.(check bool) "disjoint group ranges" true (a_hi < b_lo || b_hi < a_lo)

let test_experiment_attack_quick () =
  let result =
    E.run_attack
      { Spec.default_attack with
        Spec.duration = 60.; attack_at = 30.; mode = Flid.Plain }
  in
  Alcotest.(check bool)
    (Printf.sprintf "inflation pays off (%.0f -> %.0f)"
       result.E.f1_before result.E.f1_after)
    true
    (result.E.f1_after > 2. *. result.E.f1_before);
  Alcotest.(check bool) "series non-empty" true (List.length result.E.f1 > 10)

let test_experiment_attack_robust_quick () =
  let result =
    E.run_attack
      { Spec.default_attack with
        Spec.duration = 60.; attack_at = 30.; mode = Flid.Robust }
  in
  Alcotest.(check bool)
    (Printf.sprintf "protected (%.0f -> %.0f)" result.E.f1_before
       result.E.f1_after)
    true
    (result.E.f1_after < 2. *. Defaults.fair_share_bps /. 1000.);
  Alcotest.(check bool) "victims alive" true
    (result.E.f2_after > 50. && result.E.t1_after > 50.)

let test_experiment_sweep_quick () =
  let points =
    List.map
      (fun sessions ->
        E.run_sweep
          { Spec.default_sweep with
            Spec.seed = 11 + sessions; duration = 40.; sessions;
            mode = Flid.Plain })
      [ 1; 3 ]
  in
  Alcotest.(check int) "two points" 2 (List.length points);
  List.iter
    (fun (p : E.sweep_point) ->
      Alcotest.(check int) "one rate per session" p.E.sessions
        (List.length p.E.individual_kbps);
      Alcotest.(check bool)
        (Printf.sprintf "%d sessions avg %.0f" p.E.sessions p.E.average_kbps)
        true
        (p.E.average_kbps > 120. && p.E.average_kbps < 300.))
    points

let test_experiment_convergence_quick () =
  let series =
    E.run_convergence
      { Spec.default_convergence with Spec.duration = 40.; mode = Flid.Plain }
  in
  Alcotest.(check int) "four receivers" 4 (List.length series);
  (* All receivers end up within a factor of ~2 of each other. *)
  let finals =
    List.map
      (fun s ->
        match List.rev s with
        | (_, v) :: _ -> v
        | [] -> Alcotest.fail "empty series")
      series
  in
  let lo = List.fold_left min (List.hd finals) finals in
  let hi = List.fold_left max (List.hd finals) finals in
  Alcotest.(check bool)
    (Printf.sprintf "converged (%.0f...%.0f)" lo hi)
    true
    (lo > 0. && hi /. (Float.max lo 1.) < 3.)

let test_experiment_overhead_quick () =
  let points =
    List.map
      (fun groups ->
        E.run_overhead
          { Spec.default_overhead with
            Spec.duration = 10.; groups; axis = Spec.Groups })
      [ 2; 10 ]
  in
  Alcotest.(check int) "two points" 2 (List.length points);
  List.iter
    (fun (p : E.overhead_point) ->
      Alcotest.(check bool)
        (Printf.sprintf "delta analytic %.3f%% near 0.8%%" p.E.delta_analytic)
        true
        (abs_float (p.E.delta_analytic -. 0.79) < 0.02);
      Alcotest.(check bool) "measured tracks analytic" true
        (abs_float (p.E.delta_measured -. p.E.delta_analytic) < 0.05);
      Alcotest.(check bool)
        (Printf.sprintf "sigma %.3f%% under paper bound" p.E.sigma_analytic)
        true
        (p.E.sigma_analytic < 0.6))
    points

let test_experiment_rtt_quick () =
  let rows =
    E.run_rtt
      { Spec.default_rtt with
        Spec.duration = 60.; receivers = 5; mode = Flid.Plain }
  in
  Alcotest.(check int) "five rows" 5 (List.length rows);
  let rates = List.map snd rows in
  let lo = List.fold_left min (List.hd rates) rates in
  let hi = List.fold_left max (List.hd rates) rates in
  Alcotest.(check bool)
    (Printf.sprintf "rtt-independent (%.0f..%.0f)" lo hi)
    true
    (lo > 0.7 *. hi)

let test_experiment_responsiveness_quick () =
  let r =
    E.run_responsiveness
      { Spec.default_responsiveness with Spec.duration = 100.; mode = Flid.Plain }
  in
  Alcotest.(check bool)
    (Printf.sprintf "backs off during burst (%.0f -> %.0f)" r.E.before_kbps
       r.E.during_kbps)
    true
    (r.E.during_kbps < 0.6 *. r.E.before_kbps);
  Alcotest.(check bool)
    (Printf.sprintf "recovers after burst (%.0f)" r.E.after_kbps)
    true
    (r.E.after_kbps > 0.7 *. r.E.before_kbps)

let test_partial_deployment () =
  let r = E.run_partial { Spec.default_partial with Spec.duration = 90. } in
  let fair = Defaults.fair_share_bps /. 1000. in
  Alcotest.(check bool)
    (Printf.sprintf "SIGMA edge caps local inflation (%.0f kbps)"
       r.E.protected_attacker_kbps)
    true
    (r.E.protected_attacker_kbps < 2. *. fair);
  Alcotest.(check bool)
    (Printf.sprintf "legacy edge admits the attack (%.0f kbps)"
       r.E.unprotected_attacker_kbps)
    true
    (r.E.unprotected_attacker_kbps > 2. *. fair)

let test_ecn_reduces_drops () =
  let run ~ecn =
    let t = Scenario.create ~seed:61 ~ecn ~bottleneck_rate_bps:250_000. () in
    let session =
      Scenario.add_multicast t ~mode:Flid.Plain
        ~receivers:[ Scenario.receiver () ] ()
    in
    Scenario.run t ~seconds:60.;
    ( Scenario.bottleneck_drops t,
      Meter.mean_kbps
        (Flid.receiver_meter (List.hd session.Scenario.receivers))
        ~lo:20. ~hi:60. )
  in
  let drops_plain, kbps_plain = run ~ecn:false in
  let drops_ecn, kbps_ecn = run ~ecn:true in
  Alcotest.(check bool)
    (Printf.sprintf "marks pre-empt drops (%d -> %d)" drops_plain drops_ecn)
    true
    (drops_ecn < drops_plain);
  Alcotest.(check bool)
    (Printf.sprintf "throughput preserved (%.0f vs %.0f)" kbps_plain kbps_ecn)
    true
    (kbps_ecn > 0.6 *. kbps_plain)

let test_three_protocol_coexistence () =
  (* One session of each protocol family on one dumbbell, sharing the
     same SIGMA agent: group ranges must not clash and all three must
     move data. *)
  let t = Scenario.create ~seed:103 ~bottleneck_rate_bps:900_000. () in
  let flid =
    Scenario.add_multicast t ~mode:Flid.Robust
      ~receivers:[ Scenario.receiver () ] ()
  in
  let rep =
    Scenario.add_replicated t ~mode:Flid.Robust
      ~receivers:[ Scenario.receiver () ] ()
  in
  let rlm =
    Scenario.add_rlm t ~mode:Flid.Robust ~receivers:[ Scenario.receiver () ] ()
  in
  Scenario.run t ~seconds:40.;
  let nonzero m = Meter.total_bytes m > 0 in
  Alcotest.(check bool) "flid flows" true
    (nonzero (Flid.receiver_meter (List.hd flid.Scenario.receivers)));
  Alcotest.(check bool) "replicated flows" true
    (nonzero
       (Mcc_mcast.Replicated_proto.receiver_meter
          (List.hd rep.Scenario.rep_receivers)));
  Alcotest.(check bool) "rlm flows" true
    (nonzero
       (Mcc_mcast.Rlm_like.receiver_meter (List.hd rlm.Scenario.rlm_receivers)));
  (* Disjoint group address ranges. *)
  let fb = flid.Scenario.config.Flid.base_group in
  let rb = rep.Scenario.rep_config.Flid.base_group in
  let lb = rlm.Scenario.rlm_config.Mcc_mcast.Rlm_like.base_group in
  Alcotest.(check bool) "disjoint ranges" true
    (rb >= fb + Defaults.groups && lb >= rb + Defaults.groups)

let suite =
  ( "core",
    [
      Alcotest.test_case "three protocols coexist" `Slow
        test_three_protocol_coexistence;
      Alcotest.test_case "defaults math" `Quick test_defaults_math;
      Alcotest.test_case "dumbbell structure" `Quick test_dumbbell_structure;
      Alcotest.test_case "dumbbell LAN" `Quick test_dumbbell_receiver_lan;
      Alcotest.test_case "scenario agent" `Quick
        test_scenario_agent_only_for_robust;
      Alcotest.test_case "scenario sessions" `Quick test_scenario_unique_sessions;
      Alcotest.test_case "experiment: attack (plain)" `Slow
        test_experiment_attack_quick;
      Alcotest.test_case "experiment: attack (robust)" `Slow
        test_experiment_attack_robust_quick;
      Alcotest.test_case "experiment: sweep" `Slow test_experiment_sweep_quick;
      Alcotest.test_case "experiment: convergence" `Slow
        test_experiment_convergence_quick;
      Alcotest.test_case "experiment: overhead" `Slow
        test_experiment_overhead_quick;
      Alcotest.test_case "experiment: rtt" `Slow test_experiment_rtt_quick;
      Alcotest.test_case "experiment: responsiveness" `Slow
        test_experiment_responsiveness_quick;
      Alcotest.test_case "partial deployment" `Slow test_partial_deployment;
      Alcotest.test_case "ecn reduces drops" `Slow test_ecn_reduces_drops;
    ] )
