module Sim = Mcc_engine.Sim
module Topology = Mcc_net.Topology
module Node = Mcc_net.Node
module Link = Mcc_net.Link
module Packet = Mcc_net.Packet
module Tcp = Mcc_transport.Tcp
module Cbr = Mcc_transport.Cbr
module On_off = Mcc_transport.On_off
module Meter = Mcc_util.Meter

let path ~rate ~buffer () =
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.add_node topo Node.Host in
  let r1 = Topology.add_node topo Node.Core_router in
  let r2 = Topology.add_node topo Node.Core_router in
  let b = Topology.add_node topo Node.Host in
  ignore
    (Topology.connect topo a r1 ~rate_bps:10e6 ~delay_s:0.01
       ~buffer_bytes:100_000 ());
  let bottleneck, _ =
    Topology.connect topo r1 r2 ~rate_bps:rate ~delay_s:0.02
      ~buffer_bytes:buffer ()
  in
  ignore
    (Topology.connect topo r2 b ~rate_bps:10e6 ~delay_s:0.01
       ~buffer_bytes:100_000 ());
  Topology.compute_routes topo;
  (sim, topo, a, b, bottleneck)

let test_tcp_fills_pipe () =
  let sim, topo, a, b, _ = path ~rate:1_000_000. ~buffer:20_000 () in
  let flow = Tcp.start topo ~flow:1 ~src:a ~dst:b () in
  Sim.run_until sim 30.;
  let kbps = Meter.mean_kbps (Tcp.delivered_meter flow) ~lo:5. ~hi:30. in
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.0f kbps" kbps)
    true
    (kbps > 850. && kbps <= 1000.)

let test_tcp_losses_trigger_retransmits () =
  (* A tiny buffer forces drops; delivery must still be loss-free and
     in order at the sink (cumulative acks + retransmissions). *)
  let sim, topo, a, b, bottleneck = path ~rate:500_000. ~buffer:3_000 () in
  let flow = Tcp.start topo ~flow:1 ~src:a ~dst:b () in
  Sim.run_until sim 30.;
  Alcotest.(check bool) "drops happened" true (bottleneck.Link.drops > 0);
  Alcotest.(check bool) "retransmissions happened" true
    (Tcp.retransmissions flow > 0);
  let kbps = Meter.mean_kbps (Tcp.delivered_meter flow) ~lo:5. ~hi:30. in
  Alcotest.(check bool) "still delivers" true (kbps > 300.)

let test_tcp_two_flows_share () =
  let sim, topo, a, b, _ = path ~rate:1_000_000. ~buffer:20_000 () in
  let f1 = Tcp.start topo ~flow:1 ~src:a ~dst:b () in
  let f2 = Tcp.start ~at:0.1 topo ~flow:2 ~src:a ~dst:b () in
  Sim.run_until sim 60.;
  let k1 = Meter.mean_kbps (Tcp.delivered_meter f1) ~lo:10. ~hi:60. in
  let k2 = Meter.mean_kbps (Tcp.delivered_meter f2) ~lo:10. ~hi:60. in
  let ratio = if k2 = 0. then infinity else k1 /. k2 in
  Alcotest.(check bool)
    (Printf.sprintf "rough fairness (%.0f vs %.0f)" k1 k2)
    true
    (ratio > 0.4 && ratio < 2.5);
  Alcotest.(check bool) "pipe full" true (k1 +. k2 > 850.)

let test_tcp_cwnd_grows_from_slow_start () =
  let sim, topo, a, b, _ = path ~rate:10_000_000. ~buffer:200_000 () in
  let flow = Tcp.start topo ~flow:1 ~src:a ~dst:b () in
  Sim.run_until sim 1.0;
  Alcotest.(check bool) "cwnd grew" true (Tcp.cwnd flow > 4.)

let test_cbr_rate () =
  let sim, topo, a, b, _ = path ~rate:1_000_000. ~buffer:20_000 () in
  let meter = Meter.create () in
  Node.set_unicast_handler b (fun pkt ->
      Meter.record meter ~time:(Sim.now sim) ~bytes:pkt.Packet.size);
  ignore
    (Cbr.start topo ~src:a ~dst:(Packet.Unicast b.Node.id) ~rate_bps:200_000.
       ~size:500 ());
  Sim.run_until sim 20.;
  let kbps = Meter.mean_kbps meter ~lo:2. ~hi:20. in
  Alcotest.(check bool)
    (Printf.sprintf "cbr ~200 kbps, got %.0f" kbps)
    true
    (abs_float (kbps -. 200.) < 10.)

let test_cbr_pause_resume () =
  let sim, topo, a, b, _ = path ~rate:1_000_000. ~buffer:20_000 () in
  let count = ref 0 in
  Node.set_unicast_handler b (fun _ -> incr count);
  let cbr =
    Cbr.start topo ~src:a ~dst:(Packet.Unicast b.Node.id) ~rate_bps:100_000.
      ~size:500 ()
  in
  Sim.run_until sim 1.0;
  Cbr.pause cbr;
  let at_pause = !count in
  Sim.run_until sim 2.0;
  Alcotest.(check bool) "paused (packets in flight may land)" true
    (!count <= at_pause + 1);
  Cbr.resume cbr;
  Sim.run_until sim 3.0;
  Alcotest.(check bool) "resumed" true (!count > at_pause + 10)

let test_onoff_duty_cycle () =
  let sim, topo, a, b, _ = path ~rate:1_000_000. ~buffer:20_000 () in
  let meter = Meter.create () in
  Node.set_unicast_handler b (fun pkt ->
      Meter.record meter ~time:(Sim.now sim) ~bytes:pkt.Packet.size);
  ignore
    (On_off.start topo ~src:a ~dst:(Packet.Unicast b.Node.id)
       ~rate_bps:400_000. ~size:500 ~on_period:5. ~off_period:5. ());
  Sim.run_until sim 40.;
  (* 50% duty cycle at 400 kbps: about 200 kbps on average. *)
  let kbps = Meter.mean_kbps meter ~lo:0. ~hi:40. in
  Alcotest.(check bool)
    (Printf.sprintf "duty cycle, got %.0f" kbps)
    true
    (abs_float (kbps -. 200.) < 25.);
  (* During an off period nothing flows. *)
  let off = Meter.mean_kbps meter ~lo:6. ~hi:9. in
  Alcotest.(check bool) "off period quiet" true (off < 1.)

let test_onoff_until () =
  let sim, topo, a, b, _ = path ~rate:1_000_000. ~buffer:20_000 () in
  let meter = Meter.create () in
  Node.set_unicast_handler b (fun pkt ->
      Meter.record meter ~time:(Sim.now sim) ~bytes:pkt.Packet.size);
  ignore
    (On_off.start ~at:1. ~until:3. topo ~src:a ~dst:(Packet.Unicast b.Node.id)
       ~rate_bps:400_000. ~size:500 ~on_period:10. ~off_period:0. ());
  Sim.run_until sim 10.;
  Alcotest.(check bool) "active inside window" true
    (Meter.mean_kbps meter ~lo:1. ~hi:3. > 300.);
  Alcotest.(check bool) "silent after until" true
    (Meter.mean_kbps meter ~lo:4. ~hi:10. < 1.)

(* Handlers registered on a node are tried in registration order until
   one claims the packet. *)
let test_unicast_handlers_in_order () =
  let sim, _, a, b, _ = path ~rate:1_000_000. ~buffer:20_000 () in
  let log = ref [] in
  Node.add_unicast_handler b (fun _ ->
      log := "first" :: !log;
      false);
  Node.add_unicast_handler b (fun _ ->
      log := "second" :: !log;
      true);
  Node.add_unicast_handler b (fun _ ->
      log := "third" :: !log;
      true);
  Node.originate a
    (Packet.make ~src:a.Node.id ~dst:(Packet.Unicast b.Node.id) ~size:100
       Mcc_net.Payload.Raw);
  Sim.run_until sim 1.;
  Alcotest.(check (list string)) "order" [ "first"; "second" ] (List.rev !log)

(* A finished scenario must be collectable: nothing domain-wide may keep
   its nodes (and, through their handlers, the whole scenario) alive
   once the caller drops it. *)
let[@inline never] tcp_run_leaving_weak_node () =
  let sim, topo, a, b, _ = path ~rate:1_000_000. ~buffer:20_000 () in
  ignore (Tcp.start topo ~flow:1 ~src:a ~dst:b ());
  Sim.run_until sim 2.;
  let w = Weak.create 1 in
  Weak.set w 0 (Some a);
  w

let test_finished_scenario_collected () =
  let w = tcp_run_leaving_weak_node () in
  let sim, topo, a, b, _ = path ~rate:1_000_000. ~buffer:20_000 () in
  let flow = Tcp.start topo ~flow:1 ~src:a ~dst:b () in
  Sim.run_until sim 2.;
  Gc.full_major ();
  Alcotest.(check bool) "second scenario ran" true (Tcp.cwnd flow > 1.);
  Alcotest.(check bool) "first scenario's node collected" false (Weak.check w 0)

let suite =
  ( "transport",
    [
      Alcotest.test_case "tcp fills pipe" `Quick test_tcp_fills_pipe;
      Alcotest.test_case "tcp loss recovery" `Quick
        test_tcp_losses_trigger_retransmits;
      Alcotest.test_case "tcp sharing" `Quick test_tcp_two_flows_share;
      Alcotest.test_case "tcp slow start" `Quick
        test_tcp_cwnd_grows_from_slow_start;
      Alcotest.test_case "cbr rate" `Quick test_cbr_rate;
      Alcotest.test_case "cbr pause/resume" `Quick test_cbr_pause_resume;
      Alcotest.test_case "on-off duty cycle" `Quick test_onoff_duty_cycle;
      Alcotest.test_case "on-off until" `Quick test_onoff_until;
      Alcotest.test_case "unicast handlers in order" `Quick
        test_unicast_handlers_in_order;
      Alcotest.test_case "finished scenario collected" `Quick
        test_finished_scenario_collected;
    ] )
