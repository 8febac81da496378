(* Smaller odds and ends: the event counter, topology lookups and
   message sizes that the larger suites don't exercise. *)

module Sim = Mcc_engine.Sim
module Topology = Mcc_net.Topology
module Node = Mcc_net.Node

let test_sim_events_counter () =
  let sim = Sim.create () in
  for i = 1 to 5 do
    ignore (Sim.schedule sim ~at:(float_of_int i) (fun () -> ()))
  done;
  let h = Sim.schedule sim ~at:6. (fun () -> ()) in
  Sim.cancel h;
  Sim.run sim;
  Alcotest.(check int) "cancelled events not counted" 5
    (Sim.events_executed sim)

let test_node_link_to () =
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let a = Topology.add_node topo Node.Host in
  let b = Topology.add_node topo Node.Host in
  let c = Topology.add_node topo Node.Host in
  ignore
    (Topology.connect topo a b ~rate_bps:1e6 ~delay_s:0.01 ~buffer_bytes:1000 ());
  Alcotest.(check bool) "a-b" true (Node.link_to a b.Node.id <> None);
  Alcotest.(check bool) "a-c absent" true (Node.link_to a c.Node.id = None);
  Alcotest.(check int) "two simplex links" 2 (List.length (Topology.links topo));
  Alcotest.(check int) "three nodes" 3 (List.length (Topology.nodes topo))

let test_topology_unknown_node () =
  let sim = Sim.create () in
  let topo = Topology.create sim in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Topology.node topo 42);
       false
     with Invalid_argument _ -> true)

let test_messages_sizes () =
  let module M = Mcc_sigma.Messages in
  Alcotest.(check int) "join" 32 M.session_join_bytes;
  Alcotest.(check int) "unsub 3 groups" (28 + 12)
    (M.unsubscribe_bytes [ 1; 2; 3 ]);
  Alcotest.(check bool) "special grows with tuples" true
    (M.special_bytes ~width:16
       [ Mcc_sigma.Tuple.make ~group:1 ~slot:1 ~keys:[ 1 ] ~minimal:false ]
    < M.special_bytes ~width:16
        [
          Mcc_sigma.Tuple.make ~group:1 ~slot:1 ~keys:[ 1 ] ~minimal:false;
          Mcc_sigma.Tuple.make ~group:2 ~slot:1 ~keys:[ 1; 2 ] ~minimal:false;
        ])

let suite =
  ( "misc",
    [
      Alcotest.test_case "sim events counter" `Quick test_sim_events_counter;
      Alcotest.test_case "node link_to / topology" `Quick test_node_link_to;
      Alcotest.test_case "topology unknown node" `Quick
        test_topology_unknown_node;
      Alcotest.test_case "message sizes" `Quick test_messages_sizes;
    ] )
