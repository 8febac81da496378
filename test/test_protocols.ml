(* End-to-end tests of the additional protocol instantiations:
   replicated multicast (paper Fig. 5) and the RLM-like threshold
   protocol (Shamir DELTA). *)

module Sim = Mcc_engine.Sim
module Dumbbell = Mcc_core.Dumbbell
module Defaults = Mcc_core.Defaults
module Router_agent = Mcc_sigma.Router_agent
module Flid = Mcc_mcast.Flid
module Rep = Mcc_mcast.Replicated_proto
module Rlm = Mcc_mcast.Rlm_like
module Layering = Mcc_mcast.Layering
module Meter = Mcc_util.Meter
module Prng = Mcc_util.Prng

let build ~bottleneck ~mode =
  let sim = Sim.create () in
  let db = Dumbbell.create sim ~bottleneck_rate_bps:bottleneck () in
  let agent =
    match mode with
    | Flid.Robust -> Some (Router_agent.attach db.Dumbbell.topo db.Dumbbell.right)
    | Flid.Plain -> None
  in
  (sim, db, agent)

(* --- replicated -------------------------------------------------------- *)

let rep_config ~mode =
  Flid.make_config ~id:1 ~base_group:0x2000 ~layering:(Defaults.layering ())
    ~slot_duration:0.25 ~mode ()

let run_replicated ~mode ~behavior ~seconds ~bottleneck =
  let sim, db, _agent = build ~bottleneck ~mode in
  let config = rep_config ~mode in
  let src = Dumbbell.add_sender db in
  let dst = Dumbbell.add_receiver db in
  let prng = Prng.create 17 in
  let _sender =
    Rep.sender_start db.Dumbbell.topo ~node:src ~prng:(Prng.split prng) config
  in
  let receiver =
    Rep.receiver_start ~behavior db.Dumbbell.topo ~host:dst
      ~prng:(Prng.split prng) config
  in
  Dumbbell.finalize db;
  Sim.run_until sim seconds;
  receiver

let test_replicated_plain_converges () =
  let r =
    run_replicated ~mode:Flid.Plain ~behavior:Flid.Well_behaved ~seconds:60.
      ~bottleneck:Defaults.fair_share_bps
  in
  let g = Rep.receiver_group r in
  Alcotest.(check bool)
    (Printf.sprintf "group %d near fair" g)
    true
    (g >= 2 && g <= 4);
  let kbps = Meter.mean_kbps (Rep.receiver_meter r) ~lo:20. ~hi:60. in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.0f" kbps)
    true
    (kbps > 100. && kbps < 280.)

let test_replicated_robust_converges () =
  let r =
    run_replicated ~mode:Flid.Robust ~behavior:Flid.Well_behaved ~seconds:60.
      ~bottleneck:Defaults.fair_share_bps
  in
  let kbps = Meter.mean_kbps (Rep.receiver_meter r) ~lo:20. ~hi:60. in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.0f" kbps)
    true
    (kbps > 100. && kbps < 280.)

let test_replicated_plain_attack () =
  let r =
    run_replicated ~mode:Flid.Plain ~behavior:(Flid.Inflate_after 20.)
      ~seconds:60. ~bottleneck:500_000.
  in
  let kbps = Meter.mean_kbps (Rep.receiver_meter r) ~lo:30. ~hi:60. in
  Alcotest.(check bool)
    (Printf.sprintf "plain inflation hoards (%.0f)" kbps)
    true (kbps > 400.)

let test_replicated_robust_attack_blocked () =
  let r =
    run_replicated ~mode:Flid.Robust ~behavior:(Flid.Inflate_after 20.)
      ~seconds:60. ~bottleneck:500_000.
  in
  (* Fair share for the only session is the whole 500 kbps bottleneck;
     the point is that guessing keys buys nothing beyond the level the
     receiver could sustain anyway: group <= fair level. *)
  let g = Rep.receiver_group r in
  let fair = Layering.fair_level (Defaults.layering ()) ~rate_bps:500_000. in
  Alcotest.(check bool)
    (Printf.sprintf "group %d within entitlement %d" g fair)
    true (g <= fair + 1)

let test_replicated_group_series () =
  let r =
    run_replicated ~mode:Flid.Plain ~behavior:Flid.Well_behaved ~seconds:30.
      ~bottleneck:Defaults.fair_share_bps
  in
  Alcotest.(check bool) "switches recorded" true
    (Mcc_util.Series.length (Rep.group_series r) > 0)

(* --- RLM-like ----------------------------------------------------------- *)

let rlm_config ~mode =
  Rlm.make_config ~id:2 ~base_group:0x3000 ~layering:(Defaults.layering ())
    ~slot_duration:0.25 ~mode ()

let run_rlm ~mode ~seconds ~bottleneck =
  let sim, db, _agent = build ~bottleneck ~mode in
  let config = rlm_config ~mode in
  let src = Dumbbell.add_sender db in
  let dst = Dumbbell.add_receiver db in
  let prng = Prng.create 23 in
  let sender =
    Rlm.sender_start db.Dumbbell.topo ~node:src ~prng:(Prng.split prng) config
  in
  let receiver =
    Rlm.receiver_start db.Dumbbell.topo ~host:dst ~prng:(Prng.split prng)
      config
  in
  Dumbbell.finalize db;
  Sim.run_until sim seconds;
  (sender, receiver)

let test_rlm_thresholds_decay () =
  let config = rlm_config ~mode:Flid.Plain in
  Alcotest.(check (float 1e-9)) "theta_1" 0.25 (Rlm.threshold config ~level:1);
  Alcotest.(check bool) "decaying" true
    (Rlm.threshold config ~level:5 < Rlm.threshold config ~level:2)

let test_rlm_plain_converges () =
  let _, r =
    run_rlm ~mode:Flid.Plain ~seconds:60. ~bottleneck:Defaults.fair_share_bps
  in
  let level = Rlm.receiver_level r in
  Alcotest.(check bool)
    (Printf.sprintf "level %d near fair" level)
    true
    (level >= 2 && level <= 5);
  let kbps = Meter.mean_kbps (Rlm.receiver_meter r) ~lo:20. ~hi:60. in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.0f" kbps)
    true
    (kbps > 95. && kbps < 350.)

let test_rlm_robust_converges () =
  let _, r =
    run_rlm ~mode:Flid.Robust ~seconds:60. ~bottleneck:Defaults.fair_share_bps
  in
  let kbps = Meter.mean_kbps (Rlm.receiver_meter r) ~lo:20. ~hi:60. in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.0f" kbps)
    true
    (kbps > 100. && kbps < 350.)

let test_rlm_tolerates_light_loss () =
  (* A bottleneck slightly under level 3's cumulative rate: occasional
     loss below theta keeps the threshold receiver at its level where a
     single-loss protocol would oscillate downward. *)
  let _, r = run_rlm ~mode:Flid.Plain ~seconds:60. ~bottleneck:220_000. in
  let level = Rlm.receiver_level r in
  Alcotest.(check bool)
    (Printf.sprintf "holds level %d under light loss" level)
    true (level >= 2)

let test_rlm_aligned_threshold () =
  Alcotest.(check (float 1e-9)) "0.25 budget" 0.2
    (Rlm.aligned_threshold 0.25);
  Alcotest.(check (float 1e-9)) "no budget" 0. (Rlm.aligned_threshold 0.)

let test_rlm_reliable_variant () =
  (* Reliability extension: 25% repair packets with the matching key
     threshold.  The session functions end to end and the sender's rate
     is visibly inflated by the repair budget. *)
  let sim = Sim.create () in
  let db =
    Dumbbell.create sim ~bottleneck_rate_bps:(2. *. Defaults.fair_share_bps) ()
  in
  let _agent = Router_agent.attach db.Dumbbell.topo db.Dumbbell.right in
  let repair = 0.25 in
  let config =
    Rlm.make_config ~id:4 ~base_group:0x3800 ~repair_fraction:repair
      ~base_threshold:(Rlm.aligned_threshold repair) ~threshold_decay:1.0
      ~layering:(Defaults.layering ()) ~slot_duration:0.25 ~mode:Flid.Robust ()
  in
  let src = Dumbbell.add_sender db in
  let sender =
    Rlm.sender_start db.Dumbbell.topo ~node:src
      ~prng:(Prng.create 71) config
  in
  let host = Dumbbell.add_receiver db in
  let receiver =
    Rlm.receiver_start db.Dumbbell.topo ~host ~prng:(Prng.create 72) config
  in
  Dumbbell.finalize db;
  Sim.run_until sim 40.;
  ignore sender;
  let kbps = Meter.mean_kbps (Rlm.receiver_meter receiver) ~lo:15. ~hi:40. in
  Alcotest.(check bool)
    (Printf.sprintf "reliable session works (%.0f kbps)" kbps)
    true (kbps > 100.);
  Alcotest.(check bool) "holds a level" true (Rlm.receiver_level receiver >= 1)

let test_rlm_share_overhead_exceeds_xor () =
  (* The paper: Shamir components cannot be reused across levels, so the
     threshold scheme's overhead must exceed the XOR scheme's ~0.8%. *)
  let s, _ =
    run_rlm ~mode:Flid.Robust ~seconds:20. ~bottleneck:Defaults.fair_share_bps
  in
  let ratio =
    float_of_int (Rlm.share_overhead_bits s) /. float_of_int (Rlm.data_bits s)
  in
  Alcotest.(check bool)
    (Printf.sprintf "share overhead %.2f%%" (100. *. ratio))
    true
    (ratio > 0.008)

let suite =
  ( "protocols",
    [
      Alcotest.test_case "replicated plain converges" `Slow
        test_replicated_plain_converges;
      Alcotest.test_case "replicated robust converges" `Slow
        test_replicated_robust_converges;
      Alcotest.test_case "replicated plain attack" `Slow
        test_replicated_plain_attack;
      Alcotest.test_case "replicated robust attack blocked" `Slow
        test_replicated_robust_attack_blocked;
      Alcotest.test_case "replicated series" `Slow test_replicated_group_series;
      Alcotest.test_case "rlm thresholds" `Quick test_rlm_thresholds_decay;
      Alcotest.test_case "rlm plain converges" `Slow test_rlm_plain_converges;
      Alcotest.test_case "rlm robust converges" `Slow test_rlm_robust_converges;
      Alcotest.test_case "rlm tolerates light loss" `Slow
        test_rlm_tolerates_light_loss;
      Alcotest.test_case "rlm aligned threshold" `Quick
        test_rlm_aligned_threshold;
      Alcotest.test_case "rlm reliable variant" `Slow test_rlm_reliable_variant;
      Alcotest.test_case "rlm share overhead" `Slow
        test_rlm_share_overhead_exceeds_xor;
    ] )
