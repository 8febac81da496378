module Tfrc = Mcc_mcast.Tfrc
module Rlm = Mcc_mcast.Rlm_like
module Flid = Mcc_mcast.Flid
module Sim = Mcc_engine.Sim
module Dumbbell = Mcc_core.Dumbbell
module Defaults = Mcc_core.Defaults
module Router_agent = Mcc_sigma.Router_agent
module Meter = Mcc_util.Meter
module Prng = Mcc_util.Prng

let test_equation_shape () =
  let rate p = Tfrc.throughput ~packet_bytes:576 ~rtt:0.1 ~loss_rate:p in
  Alcotest.(check bool) "zero loss unbounded" true (rate 0. = infinity);
  Alcotest.(check bool) "monotone in loss" true
    (rate 0.01 > rate 0.05 && rate 0.05 > rate 0.2);
  (* Sanity anchor: ~1% loss, 100 ms RTT, 576-byte packets is on the
     order of a few hundred kbps for TCP. *)
  Alcotest.(check bool)
    (Printf.sprintf "plausible magnitude (%.0f kbps)" (rate 0.01 /. 1000.))
    true
    (rate 0.01 > 100_000. && rate 0.01 < 1_000_000.)

let test_equation_rtt_scaling () =
  let rate rtt = Tfrc.throughput ~packet_bytes:576 ~rtt ~loss_rate:0.02 in
  (* Throughput scales roughly inversely with RTT. *)
  let ratio = rate 0.05 /. rate 0.2 in
  Alcotest.(check bool)
    (Printf.sprintf "4x RTT -> ~4x rate (%.1f)" ratio)
    true
    (ratio > 3. && ratio < 5.)

let test_equation_invalid () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "rtt" true
    (bad (fun () -> Tfrc.throughput ~packet_bytes:576 ~rtt:0. ~loss_rate:0.1));
  Alcotest.(check bool) "loss" true
    (bad (fun () -> Tfrc.throughput ~packet_bytes:576 ~rtt:0.1 ~loss_rate:1.5));
  Alcotest.(check bool) "size" true
    (bad (fun () -> Tfrc.throughput ~packet_bytes:0 ~rtt:0.1 ~loss_rate:0.1))

let test_loss_estimator () =
  let est = Tfrc.Loss_estimator.create () in
  Alcotest.(check (float 0.)) "initial" 0. (Tfrc.Loss_estimator.value est);
  Tfrc.Loss_estimator.update est ~loss_rate:0.2;
  Alcotest.(check (float 1e-9)) "first sample adopted" 0.2
    (Tfrc.Loss_estimator.value est);
  (* A new sample weighs 0.1: 0.9 * 0.2 + 0.1 * 0. *)
  Tfrc.Loss_estimator.update est ~loss_rate:0.;
  Alcotest.(check (float 1e-9)) "ewma" 0.18 (Tfrc.Loss_estimator.value est);
  Alcotest.(check int) "samples" 2 (Tfrc.Loss_estimator.samples est)

let test_equation_receiver_end_to_end () =
  let sim = Sim.create () in
  let db =
    Dumbbell.create sim ~bottleneck_rate_bps:Defaults.fair_share_bps ()
  in
  let _agent = Router_agent.attach db.Dumbbell.topo db.Dumbbell.right in
  let config =
    Rlm.make_config ~id:5 ~base_group:0x3C00 ~policy:Rlm.Equation
      ~layering:(Defaults.layering ()) ~slot_duration:0.25 ~mode:Flid.Robust ()
  in
  let src = Dumbbell.add_sender db in
  let _sender =
    Rlm.sender_start db.Dumbbell.topo ~node:src ~prng:(Prng.create 91) config
  in
  let host = Dumbbell.add_receiver db in
  let receiver =
    Rlm.receiver_start db.Dumbbell.topo ~host ~prng:(Prng.create 92) config
  in
  Dumbbell.finalize db;
  Sim.run_until sim 60.;
  (* The probe loop must have produced an RTT close to the topology's
     80 ms path round trip. *)
  (match Rlm.receiver_rtt receiver with
  | Some rtt ->
      Alcotest.(check bool)
        (Printf.sprintf "probed rtt %.0f ms" (rtt *. 1000.))
        true
        (rtt > 0.06 && rtt < 0.2)
  | None -> Alcotest.fail "no rtt measured");
  let kbps = Meter.mean_kbps (Rlm.receiver_meter receiver) ~lo:20. ~hi:60. in
  Alcotest.(check bool)
    (Printf.sprintf "equation receiver near fair share (%.0f)" kbps)
    true
    (kbps > 95. && kbps < 320.);
  Alcotest.(check bool) "loss estimate populated" true
    (Rlm.receiver_loss_rate receiver >= 0.)

let suite =
  ( "tfrc",
    [
      Alcotest.test_case "equation shape" `Quick test_equation_shape;
      Alcotest.test_case "rtt scaling" `Quick test_equation_rtt_scaling;
      Alcotest.test_case "invalid args" `Quick test_equation_invalid;
      Alcotest.test_case "loss estimator" `Quick test_loss_estimator;
      Alcotest.test_case "equation receiver end-to-end" `Slow
        test_equation_receiver_end_to_end;
    ] )
