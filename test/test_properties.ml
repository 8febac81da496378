(* System-level property tests: invariants that must hold for arbitrary
   parameters, checked by building small simulations inside qcheck. *)

module Sim = Mcc_engine.Sim
module Topology = Mcc_net.Topology
module Node = Mcc_net.Node
module Link = Mcc_net.Link
module Packet = Mcc_net.Packet
module Payload = Mcc_net.Payload
module Multicast = Mcc_net.Multicast
module Layered = Mcc_delta.Layered
module Prng = Mcc_util.Prng

(* Conservation: on any link, every packet handed to [send] is either
   transmitted or dropped, never both, never lost track of. *)
let prop_link_conservation =
  QCheck.Test.make ~name:"link conserves packets" ~count:100
    QCheck.(
      triple (int_range 1 60) (int_range 100 2000) (int_range 500 20_000))
    (fun (burst, size, buffer) ->
      let sim = Sim.create () in
      let topo = Topology.create sim in
      let a = Topology.add_node topo Node.Host in
      let b = Topology.add_node topo Node.Host in
      let ab, _ =
        Topology.connect topo a b ~rate_bps:100_000. ~delay_s:0.001
          ~buffer_bytes:buffer ()
      in
      Topology.compute_routes topo;
      let received = ref 0 in
      Node.set_unicast_handler b (fun _ -> incr received);
      for _ = 1 to burst do
        Node.originate a
          (Packet.make ~src:a.Node.id ~dst:(Packet.Unicast b.Node.id) ~size
             Payload.Raw)
      done;
      Sim.run sim;
      !received = ab.Link.counts.tx_packets
      && burst = !received + ab.Link.counts.drops
      && ab.Link.counts.drop_bytes = ab.Link.counts.drops * size)

(* Multicast: every subscribed receiver gets each packet exactly once,
   unsubscribed receivers get nothing, regardless of which subset
   subscribes. *)
let prop_multicast_exactly_once =
  QCheck.Test.make ~name:"multicast delivers exactly once to members"
    ~count:100
    QCheck.(pair (int_range 2 6) (int_range 0 63))
    (fun (receivers, member_mask) ->
      let sim = Sim.create () in
      let topo = Topology.create sim in
      let src = Topology.add_node topo Node.Host in
      let r1 = Topology.add_node topo Node.Core_router in
      let r2 = Topology.add_node topo Node.Edge_router in
      let connect a b =
        ignore
          (Topology.connect topo a b ~rate_bps:10e6 ~delay_s:0.002
             ~buffer_bytes:1_000_000 ())
      in
      connect src r1;
      connect r1 r2;
      let hosts =
        List.init receivers (fun _ ->
            let h = Topology.add_node topo Node.Host in
            connect r2 h;
            h)
      in
      Topology.compute_routes topo;
      let group = 4242 in
      Topology.register_group topo ~group ~source:src;
      let counters =
        List.mapi
          (fun i host ->
            let member = member_mask land (1 lsl i) <> 0 in
            let count = ref 0 in
            Node.subscribe_local host ~group (fun _ -> incr count);
            if member then Multicast.host_join topo ~host ~group;
            (member, count))
          hosts
      in
      Sim.run_until sim 0.5;
      let packets = 5 in
      for _ = 1 to packets do
        Node.originate src
          (Packet.make ~src:src.Node.id ~dst:(Packet.Multicast group)
             ~size:300 Payload.Raw)
      done;
      Sim.run_until sim 1.0;
      List.for_all
        (fun (member, count) -> !count = if member then packets else 0)
        counters)

(* DELTA sender: the advertised key set for each group always contains
   the top key, the decrease key below the maximal group, and the
   increase key exactly when authorized. *)
let prop_valid_keys_structure =
  QCheck.Test.make ~name:"layered valid_keys structure" ~count:200
    QCheck.(pair small_int (int_range 0 255))
    (fun (seed, upgrade_mask) ->
      let n = 8 in
      let prng = Prng.create (seed + 17) in
      let upgrades = Array.init n (fun i -> i >= 1 && upgrade_mask land (1 lsl i) <> 0) in
      let sender = Layered.sender_create ~prng ~width:16 ~groups:n ~upgrades in
      let keys = Layered.sender_keys sender in
      List.for_all
        (fun g ->
          let set = Layered.valid_keys keys ~group:g in
          let has_top = List.mem keys.Layered.top.(g - 1) set in
          let size_ok =
            let expected =
              1
              + (if g < n then 1 else 0)
              + (if upgrades.(g - 1) then 1 else 0)
            in
            List.length set = expected
          in
          has_top && size_ok)
        (List.init n (fun i -> i + 1)))

(* The simulation executes exactly the events that were scheduled and
   not cancelled, in spite of arbitrary interleavings. *)
let prop_sim_executes_uncancelled =
  QCheck.Test.make ~name:"sim executes exactly uncancelled events" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 50) (pair (float_bound_inclusive 10.) bool))
    (fun specs ->
      let sim = Sim.create () in
      let expected = ref 0 in
      List.iter
        (fun (at, cancel) ->
          let h = Sim.schedule sim ~at (fun () -> ()) in
          if cancel then Sim.cancel h else incr expected)
        specs;
      Sim.run sim;
      Sim.events_executed sim = !expected)

(* Meter: mean over the full window equals total bytes scaled, for any
   record pattern. *)
let prop_meter_mean_consistent =
  QCheck.Test.make ~name:"meter mean equals totals" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 60) (int_range 1 5_000))
    (fun sizes ->
      (* Shrinking may go below the generator's size bound. *)
      QCheck.assume (sizes <> []);
      let m = Mcc_util.Meter.create () in
      List.iteri
        (fun i b ->
          Mcc_util.Meter.record m ~time:(float_of_int i *. 0.25) ~bytes:b)
        sizes;
      let horizon =
        (* round up to a whole second so every record falls inside *)
        Float.of_int
          (int_of_float (ceil (0.25 *. float_of_int (List.length sizes))))
      in
      let horizon = Float.max 1. horizon in
      let total = List.fold_left ( + ) 0 sizes in
      let mean = Mcc_util.Meter.mean_kbps m ~lo:0. ~hi:horizon in
      let expected = float_of_int (total * 8) /. horizon /. 1000. in
      abs_float (mean -. expected) < 1e-6 *. (1. +. expected))

let suite =
  ( "properties",
    [
      QCheck_alcotest.to_alcotest prop_link_conservation;
      QCheck_alcotest.to_alcotest prop_multicast_exactly_once;
      QCheck_alcotest.to_alcotest prop_valid_keys_structure;
      QCheck_alcotest.to_alcotest prop_sim_executes_uncancelled;
      QCheck_alcotest.to_alcotest prop_meter_mean_consistent;
    ] )
