module Sim = Mcc_engine.Sim
module Topology = Mcc_net.Topology
module Node = Mcc_net.Node
module Link = Mcc_net.Link
module Packet = Mcc_net.Packet
module Payload = Mcc_net.Payload
module Multicast = Mcc_net.Multicast
module Prng = Mcc_util.Prng
module Spec = Mcc_core.Spec
module Topo_gen = Mcc_workload.Topo_gen

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
  Alcotest.(check int) "dropped" 7 ab.Link.counts.drops;
  Alcotest.(check int) "conservation" sent (!received + ab.Link.counts.drops)

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
  Alcotest.(check int) "counter matches" !marked ab.Link.counts.marks

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
  Alcotest.(check bool) "bottleneck on tree" true
    (mid.Link.counts.tx_packets >= 1);
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
    mid.Link.counts.tx_packets

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
  Alcotest.(check bool) "tree reaches router" true
    (mid.Link.counts.tx_packets >= 1);
  (* A downstream join and leave must not sever the local interest. *)
  Node.subscribe_local h2 ~group (fun _ -> ());
  Multicast.host_join topo ~host:h2 ~group;
  Sim.run_until sim 1.5;
  Multicast.host_leave topo ~host:h2 ~group;
  Sim.run_until sim 2.5;
  let before = mid.Link.counts.tx_packets in
  Node.originate h1
    (Packet.make ~src:h1.Node.id ~dst:(Packet.Multicast group) ~size:200
       Mcc_net.Payload.Raw);
  Sim.run_until sim 3.0;
  Alcotest.(check bool) "still on tree after downstream leave" true
    (mid.Link.counts.tx_packets > before);
  (* Dropping the local interest prunes for good. *)
  Multicast.prune_local topo ~node:r2 ~group;
  Sim.run_until sim 4.0;
  let before = mid.Link.counts.tx_packets in
  Node.originate h1
    (Packet.make ~src:h1.Node.id ~dst:(Packet.Multicast group) ~size:200
       Mcc_net.Payload.Raw);
  Sim.run_until sim 5.0;
  Alcotest.(check int) "pruned after local release" before
    mid.Link.counts.tx_packets

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
  Alcotest.(check int) "drops counted" 7 ab.Link.counts.drops

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

(* Node.Itbl against the stdlib Hashtbl as a model: random replace,
   remove, clear and reset steps over keys that force resizes (and
   include negative ones); after each step every lookup agrees, and a
   fold visits each binding once. *)
type itbl_op = Replace of int * int | Remove of int | Clear | Reset

let prop_itbl_matches_hashtbl =
  let op =
    QCheck.Gen.(
      frequency
        [
          (12, map2 (fun k v -> Replace (k, v)) (int_range (-20) 200) nat);
          (6, map (fun k -> Remove k) (int_range (-20) 200));
          (1, return Clear);
          (1, return Reset);
        ])
  in
  QCheck.Test.make ~name:"Itbl matches Hashtbl" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 400) op))
    (fun ops ->
      let t = Node.Itbl.create 16 and model = Hashtbl.create 16 in
      let agrees () =
        let bindings =
          List.sort compare (Node.Itbl.fold (fun k v acc -> (k, v) :: acc) t [])
        in
        let visited = ref 0 in
        Node.Itbl.iter (fun _ _ -> incr visited) t;
        bindings = List.sort compare (List.of_seq (Hashtbl.to_seq model))
        && !visited = List.length bindings
        && List.for_all
             (fun k ->
               let want = Hashtbl.find_opt model k in
               Node.Itbl.find_opt t k = want
               && Node.Itbl.mem t k = Option.is_some want
               &&
               match Node.Itbl.find t k with
               | v -> want = Some v
               | exception Not_found -> want = None)
             (List.init 221 (fun i -> i - 20))
      in
      List.for_all
        (fun op ->
          (match op with
          | Replace (k, v) ->
              Node.Itbl.replace t k v;
              Hashtbl.replace model k v
          | Remove k ->
              Node.Itbl.remove t k;
              Hashtbl.remove model k
          | Clear ->
              Node.Itbl.clear t;
              Hashtbl.clear model
          | Reset ->
              Node.Itbl.reset t;
              Hashtbl.reset model);
          agrees ())
        ops)

(* --- Routes against the linear-scan Dijkstra ------------------------------ *)

(* The reference model: a Dijkstra that scans for the nearest unsettled
   node, lowest id first, reading the graph through the public
   interface.  For each source in id order, the first hop's link id
   toward every destination it reaches, in destination order. *)
let reference_routes topo =
  let all = Topology.nodes topo in
  let n = List.length all in
  List.map
    (fun (src : Node.t) ->
      let dist = Array.make n infinity in
      let first_hop : Link.t option array = Array.make n None in
      let visited = Array.make n false in
      dist.(src.Node.id) <- 0.;
      let rec loop () =
        let best = ref (-1) in
        for i = 0 to n - 1 do
          if (not visited.(i)) && dist.(i) < infinity
             && (!best = -1 || dist.(i) < dist.(!best))
          then best := i
        done;
        if !best >= 0 then begin
          let u = !best in
          visited.(u) <- true;
          let node_u = Topology.node topo u in
          List.iter
            (fun (l : Link.t) ->
              let v = l.Link.dst in
              let d = dist.(u) +. l.Link.delay_s +. 1e-9 in
              if d < dist.(v) then begin
                dist.(v) <- d;
                first_hop.(v) <-
                  (if u = src.Node.id then Some l else first_hop.(u))
              end)
            node_u.Node.links;
          loop ()
        end
      in
      loop ();
      List.filter_map
        (fun v ->
          match first_hop.(v) with
          | Some (l : Link.t) when v <> src.Node.id -> Some (v, l.Link.id)
          | _ -> None)
        (List.init n Fun.id))
    all

(* Every node's FIB as (destination, link id) bindings in destination
   order. *)
let fibs topo =
  List.map
    (fun (n : Node.t) ->
      List.sort compare
        (Node.Itbl.fold
           (fun v (l : Link.t) acc -> (v, l.Link.id) :: acc)
           n.Node.fib []))
    (Topology.nodes topo)

let routes_match topo =
  Topology.compute_routes topo;
  fibs topo = reference_routes topo

(* A connected graph of 2-32 hosts and routers ([hosts.(id)] is true for
   a host): a spanning tree over a random labelling plus up to 2N extra
   links, parallel ones allowed, wired in a random order and
   orientation.  Delays of 1, 2 or 3 ms make equal-distance paths
   common, so the tie rule decides many first hops. *)
type graph = { hosts : bool array; wires : (int * int * float) list }

let gen_graph =
  let open QCheck.Gen in
  let delay = oneofl [ 0.001; 0.002; 0.003 ] in
  int_range 2 32 >>= fun n ->
  list_repeat n bool >>= fun hosts ->
  shuffle_l (List.init n Fun.id) >>= fun order ->
  let order = Array.of_list order in
  let tree =
    flatten_l
      (List.init (n - 1) (fun i ->
           map2 (fun p d -> (order.(i + 1), order.(p), d)) (int_bound i) delay))
  in
  let extra =
    list_size
      (int_bound (2 * n))
      (map3
         (fun a b d -> (a, (a + 1 + b) mod n, d))
         (int_bound (n - 1))
         (int_bound (n - 2))
         delay)
  in
  map2 ( @ ) tree extra >>= shuffle_l >>= fun wires ->
  list_repeat (List.length wires) bool >>= fun flips ->
  return
    {
      hosts = Array.of_list hosts;
      wires =
        List.map2
          (fun (a, b, d) flip -> if flip then (b, a, d) else (a, b, d))
          wires flips;
    }

let print_graph g =
  Printf.sprintf "hosts [%s]; wires [%s]"
    (String.concat ";" (Array.to_list (Array.map string_of_bool g.hosts)))
    (String.concat "; "
       (List.map (fun (a, b, d) -> Printf.sprintf "%d-%d %gms" a b (d *. 1e3))
          g.wires))

let prop_routes_match_linear_scan =
  QCheck.Test.make ~name:"routes match the linear-scan Dijkstra" ~count:500
    (QCheck.make ~print:print_graph gen_graph)
    (fun g ->
      let topo = Topology.create (Sim.create ()) in
      let nodes =
        Array.map
          (fun host ->
            Topology.add_node topo (if host then Node.Host else Node.Core_router))
          g.hosts
      in
      List.iter
        (fun (a, b, delay_s) ->
          ignore
            (Topology.connect topo nodes.(a) nodes.(b) ~rate_bps:1e6 ~delay_s
               ~buffer_bytes:10_000 ()))
        g.wires;
      routes_match topo)

(* The workload generators' shapes, whose equal core and access delays
   tie many paths. *)
let test_generator_routes spec () =
  List.iter
    (fun seed ->
      let built =
        Topo_gen.build (Sim.create ()) ~prng:(Prng.create seed) ~spec ~hosts:1
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %d" (Spec.topology_str spec) seed)
        true
        (routes_match built.Topo_gen.topo))
    [ 1; 2; 3 ]

let test_empty_routes () =
  Alcotest.(check bool) "nothing to route" true
    (routes_match (Topology.create (Sim.create ())))

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
      QCheck_alcotest.to_alcotest prop_itbl_matches_hashtbl;
      QCheck_alcotest.to_alcotest prop_routes_match_linear_scan;
      Alcotest.test_case "routes: fat tree" `Quick
        (test_generator_routes
           (Spec.Fat_tree { k = 4; core_rate_bps = 2_000_000. }));
      Alcotest.test_case "routes: star of LANs" `Quick
        (test_generator_routes
           (Spec.Star_lans
              { lans = 4; hosts_per_lan = 4; core_rate_bps = 2_000_000. }));
      Alcotest.test_case "routes: ISP random" `Quick
        (test_generator_routes
           (Spec.Isp_random
              {
                routers = 8;
                extra_links = 6;
                hosts_per_edge = 2;
                core_rate_bps = 2_000_000.;
              }));
      Alcotest.test_case "routes: empty topology" `Quick test_empty_routes;
    ] )
