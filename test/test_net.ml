module Sim = Mcc_engine.Sim
module Topology = Mcc_net.Topology
module Node = Mcc_net.Node
module Link = Mcc_net.Link
module Packet = Mcc_net.Packet
module Payload = Mcc_net.Payload
module Multicast = Mcc_net.Multicast

(* Two hosts joined by two routers: h1 - r1 - r2 - h2. *)
let line_topology () =
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let h1 = Topology.add_node topo Node.Host in
  let r1 = Topology.add_node topo Node.Edge_router in
  let r2 = Topology.add_node topo Node.Edge_router in
  let h2 = Topology.add_node topo Node.Host in
  let connect a b =
    Topology.connect topo a b ~rate_bps:1_000_000. ~delay_s:0.01
      ~buffer_bytes:10_000 ()
  in
  ignore (connect h1 r1);
  let mid, _ = connect r1 r2 in
  ignore (connect r2 h2);
  Topology.compute_routes topo;
  (sim, topo, h1, r1, r2, h2, mid)

let test_unicast_delivery () =
  let sim, _topo, h1, _, _, h2, _ = line_topology () in
  let got = ref 0 in
  Node.set_unicast_handler h2 (fun _ -> incr got);
  Node.originate h1
    (Packet.make ~src:h1.Node.id ~dst:(Packet.Unicast h2.Node.id) ~size:1000
       Payload.Raw);
  Sim.run sim;
  Alcotest.(check int) "delivered" 1 !got;
  (* 1000 B over three 1 Mbps hops = 3 * 8 ms tx + 3 * 10 ms prop. *)
  Alcotest.(check bool) "latency sane" true
    (Sim.now sim >= 0.054 -. 1e-9 && Sim.now sim < 0.06)

let test_link_serialization () =
  let sim, _topo, h1, _, _, h2, _ = line_topology () in
  let times = ref [] in
  Node.set_unicast_handler h2 (fun _ -> times := Sim.now sim :: !times);
  for _ = 1 to 3 do
    Node.originate h1
      (Packet.make ~src:h1.Node.id ~dst:(Packet.Unicast h2.Node.id) ~size:1000
         Payload.Raw)
  done;
  Sim.run sim;
  match List.rev !times with
  | [ t1; t2; t3 ] ->
      (* Pipelined: one serialization (8 ms) apart at the sink. *)
      Alcotest.(check (float 1e-6)) "spacing 1" 0.008 (t2 -. t1);
      Alcotest.(check (float 1e-6)) "spacing 2" 0.008 (t3 -. t2)
  | _ -> Alcotest.fail "expected 3 deliveries"

let test_drop_tail_and_conservation () =
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.add_node topo Node.Host in
  let b = Topology.add_node topo Node.Host in
  let ab, _ =
    Topology.connect topo a b ~rate_bps:80_000. ~delay_s:0.001
      ~buffer_bytes:2_000 ()
  in
  Topology.compute_routes topo;
  let received = ref 0 in
  Node.set_unicast_handler b (fun _ -> incr received);
  (* Burst of 10 x 1000 B into an 80 kbps link with a 2000 B buffer:
     1 in service + 2 queued fit; the rest drop. *)
  let sent = 10 in
  for _ = 1 to sent do
    Node.originate a
      (Packet.make ~src:a.Node.id ~dst:(Packet.Unicast b.Node.id) ~size:1000
         Payload.Raw)
  done;
  Sim.run sim;
  Alcotest.(check int) "delivered" 3 !received;
  Alcotest.(check int) "dropped" 7 ab.Link.drops;
  Alcotest.(check int) "conservation" sent (!received + ab.Link.drops)

let test_ecn_marking () =
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.add_node topo Node.Host in
  let b = Topology.add_node topo Node.Host in
  let ab, _ =
    Topology.connect topo a b ~rate_bps:80_000. ~delay_s:0.001
      ~buffer_bytes:4_000 ~ecn_threshold_bytes:1_500 ()
  in
  Topology.compute_routes topo;
  let marked = ref 0 and clean = ref 0 in
  Node.set_unicast_handler b (fun pkt ->
      if pkt.Packet.ecn then incr marked else incr clean);
  for _ = 1 to 5 do
    Node.originate a
      (Packet.make ~src:a.Node.id ~dst:(Packet.Unicast b.Node.id) ~size:1000
         Payload.Raw)
  done;
  Sim.run sim;
  Alcotest.(check int) "all delivered" 5 (!marked + !clean);
  Alcotest.(check bool) "some marked" true (!marked > 0);
  Alcotest.(check int) "counter matches" !marked ab.Link.marks

let test_routing_shortest_path () =
  (* Square with a shortcut: a-b-d is 2 x 10 ms, a-c-d is 1 + 1 ms. *)
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.add_node topo Node.Core_router in
  let b = Topology.add_node topo Node.Core_router in
  let c = Topology.add_node topo Node.Core_router in
  let d = Topology.add_node topo Node.Core_router in
  let connect x y delay =
    ignore
      (Topology.connect topo x y ~rate_bps:1e6 ~delay_s:delay
         ~buffer_bytes:10_000 ())
  in
  connect a b 0.01;
  connect b d 0.01;
  connect a c 0.001;
  connect c d 0.001;
  Topology.compute_routes topo;
  match Node.Itbl.find_opt a.Node.fib d.Node.id with
  | Some link -> Alcotest.(check int) "via c" c.Node.id link.Link.dst
  | None -> Alcotest.fail "no route"

let test_multicast_tree_and_prune () =
  let sim, topo, h1, _r1, r2, h2, mid = line_topology () in
  let group = 500 in
  Topology.register_group topo ~group ~source:h1;
  let got = ref 0 in
  Node.subscribe_local h2 ~group (fun _ -> incr got);
  Multicast.host_join topo ~host:h2 ~group;
  Sim.run_until sim 1.0;
  (* Graft has propagated; send a multicast packet from the source. *)
  Node.originate h1
    (Packet.make ~src:h1.Node.id ~dst:(Packet.Multicast group) ~size:500
       Payload.Raw);
  Sim.run_until sim 2.0;
  Alcotest.(check int) "delivered over tree" 1 !got;
  Alcotest.(check bool) "bottleneck on tree" true (mid.Link.tx_packets >= 1);
  (* Leave: prune propagates, further packets go nowhere. *)
  Multicast.host_leave topo ~host:h2 ~group;
  Sim.run_until sim 3.0;
  Node.originate h1
    (Packet.make ~src:h1.Node.id ~dst:(Packet.Multicast group) ~size:500
       Payload.Raw);
  Sim.run_until sim 4.0;
  Alcotest.(check int) "no delivery after leave" 1 !got;
  Alcotest.(check bool) "pruned from source"
    true
    (Node.downstream r2 ~group = [] && Node.downstream h1 ~group = [])

let test_multicast_branching_copies () =
  (* One source, two receivers behind the same edge router: the
     bottleneck carries each packet once, the edge duplicates. *)
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let src = Topology.add_node topo Node.Host in
  let r1 = Topology.add_node topo Node.Edge_router in
  let r2 = Topology.add_node topo Node.Edge_router in
  let d1 = Topology.add_node topo Node.Host in
  let d2 = Topology.add_node topo Node.Host in
  let connect a b =
    Topology.connect topo a b ~rate_bps:1e6 ~delay_s:0.005
      ~buffer_bytes:10_000 ()
  in
  ignore (connect src r1);
  let mid, _ = connect r1 r2 in
  ignore (connect r2 d1);
  ignore (connect r2 d2);
  Topology.compute_routes topo;
  let group = 600 in
  Topology.register_group topo ~group ~source:src;
  let got1 = ref 0 and got2 = ref 0 in
  Node.subscribe_local d1 ~group (fun _ -> incr got1);
  Node.subscribe_local d2 ~group (fun _ -> incr got2);
  Multicast.host_join topo ~host:d1 ~group;
  Multicast.host_join topo ~host:d2 ~group;
  Sim.run_until sim 0.5;
  for _ = 1 to 4 do
    Node.originate src
      (Packet.make ~src:src.Node.id ~dst:(Packet.Multicast group) ~size:500
         Payload.Raw)
  done;
  Sim.run_until sim 1.0;
  Alcotest.(check int) "receiver 1" 4 !got1;
  Alcotest.(check int) "receiver 2" 4 !got2;
  Alcotest.(check int) "bottleneck carried each packet once" 4
    mid.Link.tx_packets

let test_protected_group_ignores_igmp () =
  let sim, topo, h1, _, r2, h2, _ = line_topology () in
  let group = 700 in
  Topology.register_group topo ~group ~source:h1;
  Node.Itbl.replace r2.Node.protected_groups group ();
  let got = ref 0 in
  Node.subscribe_local h2 ~group (fun _ -> incr got);
  Multicast.host_join topo ~host:h2 ~group;
  Sim.run_until sim 1.0;
  Node.originate h1
    (Packet.make ~src:h1.Node.id ~dst:(Packet.Multicast group) ~size:500
       Payload.Raw);
  Sim.run_until sim 2.0;
  Alcotest.(check int) "join ignored on protected group" 0 !got

let test_router_alert_not_to_hosts () =
  let sim, topo, h1, _, r2, h2, _ = line_topology () in
  let group = 800 in
  Topology.register_group topo ~group ~source:h1;
  let host_got = ref 0 and intercepted = ref 0 in
  Node.subscribe_local h2 ~group (fun _ -> incr host_got);
  r2.Node.intercept <- Some (fun _ -> incr intercepted);
  Multicast.host_join topo ~host:h2 ~group;
  Sim.run_until sim 1.0;
  Node.originate h1
    (Packet.make ~router_alert:true ~src:h1.Node.id
       ~dst:(Packet.Multicast group) ~size:100 Payload.Raw);
  Sim.run_until sim 2.0;
  Alcotest.(check int) "host never sees special" 0 !host_got;
  Alcotest.(check int) "edge router intercepts" 1 !intercepted

let test_graft_local_holds_tree () =
  (* A router's own (local) interest keeps it on the tree even with no
     downstream interfaces: SIGMA's control-channel requirement. *)
  let sim, topo, h1, _r1, r2, h2, mid = line_topology () in
  let group = 850 in
  Topology.register_group topo ~group ~source:h1;
  Multicast.graft_local topo ~node:r2 ~group;
  Sim.run_until sim 0.5;
  Node.originate h1
    (Packet.make ~src:h1.Node.id ~dst:(Packet.Multicast group) ~size:200
       Mcc_net.Payload.Raw);
  Sim.run_until sim 1.0;
  Alcotest.(check bool) "tree reaches router" true (mid.Link.tx_packets >= 1);
  (* A downstream join and leave must not sever the local interest. *)
  Node.subscribe_local h2 ~group (fun _ -> ());
  Multicast.host_join topo ~host:h2 ~group;
  Sim.run_until sim 1.5;
  Multicast.host_leave topo ~host:h2 ~group;
  Sim.run_until sim 2.5;
  let before = mid.Link.tx_packets in
  Node.originate h1
    (Packet.make ~src:h1.Node.id ~dst:(Packet.Multicast group) ~size:200
       Mcc_net.Payload.Raw);
  Sim.run_until sim 3.0;
  Alcotest.(check bool) "still on tree after downstream leave" true
    (mid.Link.tx_packets > before);
  (* Dropping the local interest prunes for good. *)
  Multicast.prune_local topo ~node:r2 ~group;
  Sim.run_until sim 4.0;
  let before = mid.Link.tx_packets in
  Node.originate h1
    (Packet.make ~src:h1.Node.id ~dst:(Packet.Multicast group) ~size:200
       Mcc_net.Payload.Raw);
  Sim.run_until sim 5.0;
  Alcotest.(check int) "pruned after local release" before mid.Link.tx_packets

let test_packet_count_buffer () =
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.add_node topo Node.Host in
  let b = Topology.add_node topo Node.Host in
  let ab, _ =
    Topology.connect topo a b ~rate_bps:80_000. ~delay_s:0.001
      ~buffer_bytes:1_000_000 ~buffer_packets:2 ()
  in
  Topology.compute_routes topo;
  let received = ref 0 in
  Node.set_unicast_handler b (fun _ -> incr received);
  for _ = 1 to 10 do
    Node.originate a
      (Packet.make ~src:a.Node.id ~dst:(Packet.Unicast b.Node.id) ~size:100
         Mcc_net.Payload.Raw)
  done;
  Sim.run sim;
  (* 1 in service + 2 queued; byte budget would have fit all ten. *)
  Alcotest.(check int) "packet cap enforced" 3 !received;
  Alcotest.(check int) "drops counted" 7 ab.Link.drops

let test_lan_repeats () =
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let r = Topology.add_node topo Node.Edge_router in
  let lan = Topology.add_node topo Node.Lan in
  let a = Topology.add_node topo Node.Host in
  let b = Topology.add_node topo Node.Host in
  ignore
    (Topology.connect topo r lan ~rate_bps:1e7 ~delay_s:0.001
       ~buffer_bytes:10_000 ());
  ignore
    (Topology.connect topo lan a ~rate_bps:1e7 ~delay_s:0.0001
       ~buffer_bytes:10_000 ());
  ignore
    (Topology.connect topo lan b ~rate_bps:1e7 ~delay_s:0.0001
       ~buffer_bytes:10_000 ());
  Topology.compute_routes topo;
  let a_prom = ref 0 and b_local = ref 0 in
  a.Node.promiscuous <- Some (fun _ -> incr a_prom);
  Node.set_unicast_handler b (fun _ -> incr b_local);
  Node.originate r
    (Packet.make ~src:r.Node.id ~dst:(Packet.Unicast b.Node.id) ~size:100
       Payload.Raw);
  Sim.run sim;
  Alcotest.(check int) "b receives" 1 !b_local;
  Alcotest.(check int) "a snoops via promiscuous tap" 1 !a_prom

let suite =
  ( "net",
    [
      Alcotest.test_case "unicast delivery" `Quick test_unicast_delivery;
      Alcotest.test_case "link serialization" `Quick test_link_serialization;
      Alcotest.test_case "drop-tail conservation" `Quick
        test_drop_tail_and_conservation;
      Alcotest.test_case "ecn marking" `Quick test_ecn_marking;
      Alcotest.test_case "shortest path" `Quick test_routing_shortest_path;
      Alcotest.test_case "multicast tree & prune" `Quick
        test_multicast_tree_and_prune;
      Alcotest.test_case "multicast branching" `Quick
        test_multicast_branching_copies;
      Alcotest.test_case "protected group" `Quick
        test_protected_group_ignores_igmp;
      Alcotest.test_case "router alert" `Quick test_router_alert_not_to_hosts;
      Alcotest.test_case "graft_local" `Quick test_graft_local_holds_tree;
      Alcotest.test_case "packet-count buffer" `Quick test_packet_count_buffer;
      Alcotest.test_case "lan repeats" `Quick test_lan_repeats;
    ] )
