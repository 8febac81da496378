module Sim = Mcc_engine.Sim
module Topology = Mcc_net.Topology
module Node = Mcc_net.Node
module Packet = Mcc_net.Packet
module Payload = Mcc_net.Payload
module Multicast = Mcc_net.Multicast
module Tuple = Mcc_sigma.Tuple
module Special = Mcc_sigma.Special
module Router_agent = Mcc_sigma.Router_agent
module Client = Mcc_sigma.Client
module Messages = Mcc_sigma.Messages

(* sender host -- edge router -- two receiver hosts *)
type env = {
  sim : Sim.t;
  topo : Topology.t;
  src : Node.t;
  router : Node.t;
  d1 : Node.t;
  d2 : Node.t;
  agent : Router_agent.t;
}

let minimal = 900
let upper = 901
let slot_duration = 0.25

let make_env () =
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let src = Topology.add_node topo Node.Host in
  let router = Topology.add_node topo Node.Edge_router in
  let d1 = Topology.add_node topo Node.Host in
  let d2 = Topology.add_node topo Node.Host in
  let connect a b =
    ignore
      (Topology.connect topo a b ~rate_bps:10_000_000. ~delay_s:0.002
         ~buffer_bytes:100_000 ())
  in
  connect src router;
  connect router d1;
  connect router d2;
  Topology.compute_routes topo;
  Topology.register_group topo ~group:minimal ~source:src;
  Topology.register_group topo ~group:upper ~source:src;
  let agent = Router_agent.attach topo router in
  (* The router must be on the minimal group's tree to receive specials:
     emulate an interested downstream by grafting the router itself via a
     local subscription entry. *)
  Node.subscribe_local router ~group:minimal (fun _ -> ());
  Multicast.graft topo ~node:router ~group:minimal
    ~down:(Option.get (Node.Itbl.find_opt router.Node.fib d1.Node.id));
  Multicast.prune topo ~node:router ~group:minimal
    ~down:(Option.get (Node.Itbl.find_opt router.Node.fib d1.Node.id));
  { sim; topo; src; router; d1; d2; agent }

(* Distribute keys for [slot], valid keys [keys] per group. *)
let distribute env ~slot ~tuples =
  ignore
    (Special.distribute env.topo ~sender:env.src ~session:1 ~via_group:minimal
       ~width:16 ~slot ~slot_duration ~tuples ())

let tuples_for ~slot ~minimal_key ~upper_key =
  [
    Tuple.make ~group:minimal ~slot ~keys:[ minimal_key ] ~minimal:true;
    Tuple.make ~group:upper ~slot ~keys:[ upper_key ] ~minimal:false;
  ]

let test_keystore_and_grant () =
  let env = make_env () in
  distribute env ~slot:2 ~tuples:(tuples_for ~slot:2 ~minimal_key:0xAA ~upper_key:0xBB);
  Sim.run_until env.sim 0.2;
  Alcotest.(check bool) "groups known" true
    (List.mem minimal (Router_agent.known_groups env.agent)
     && List.mem upper (Router_agent.known_groups env.agent));
  Alcotest.(check bool) "not active yet" false
    (Router_agent.iface_active env.agent ~group:minimal ~toward:env.d1.Node.id);
  Router_agent.handle_subscribe env.agent ~receiver:env.d1.Node.id ~slot:2
    ~pairs:[ (minimal, 0xAA) ];
  Alcotest.(check bool) "active after valid key" true
    (Router_agent.iface_active env.agent ~group:minimal ~toward:env.d1.Node.id);
  Alcotest.(check bool) "other iface untouched" false
    (Router_agent.iface_active env.agent ~group:minimal ~toward:env.d2.Node.id)

let test_invalid_key_denied_and_tallied () =
  let env = make_env () in
  distribute env ~slot:2 ~tuples:(tuples_for ~slot:2 ~minimal_key:0xAA ~upper_key:0xBB);
  Sim.run_until env.sim 0.2;
  Router_agent.handle_subscribe env.agent ~receiver:env.d1.Node.id ~slot:2
    ~pairs:[ (upper, 0x11); (upper, 0x22); (upper, 0x22) ];
  Alcotest.(check bool) "denied" false
    (Router_agent.iface_active env.agent ~group:upper ~toward:env.d1.Node.id);
  Alcotest.(check int) "distinct guesses counted" 2
    (Router_agent.guess_count env.agent ~group:upper ~slot:2)

let test_grant_expires () =
  let env = make_env () in
  distribute env ~slot:2 ~tuples:(tuples_for ~slot:2 ~minimal_key:0xAA ~upper_key:0xBB);
  Sim.run_until env.sim 0.2;
  Router_agent.handle_subscribe env.agent ~receiver:env.d1.Node.id ~slot:2
    ~pairs:[ (upper, 0xBB) ];
  Alcotest.(check bool) "granted" true
    (Router_agent.iface_active env.agent ~group:upper ~toward:env.d1.Node.id);
  (* Slot 2 ends roughly 3 slot durations after distribution; the grace
     window for a newly activated interface adds two more slots.  With no
     further keys the grant must lapse after that. *)
  Sim.run_until env.sim 3.0;
  Alcotest.(check bool) "expired without fresh keys" false
    (Router_agent.iface_active env.agent ~group:upper ~toward:env.d1.Node.id)

let test_unsubscribe_immediate () =
  let env = make_env () in
  distribute env ~slot:2 ~tuples:(tuples_for ~slot:2 ~minimal_key:0xAA ~upper_key:0xBB);
  Sim.run_until env.sim 0.2;
  Router_agent.handle_subscribe env.agent ~receiver:env.d1.Node.id ~slot:2
    ~pairs:[ (upper, 0xBB) ];
  Router_agent.handle_unsubscribe env.agent ~receiver:env.d1.Node.id
    ~groups:[ upper ];
  Alcotest.(check bool) "inactive immediately" false
    (Router_agent.iface_active env.agent ~group:upper ~toward:env.d1.Node.id)

let test_session_join_grace_and_lockout () =
  let env = make_env () in
  distribute env ~slot:2 ~tuples:(tuples_for ~slot:2 ~minimal_key:0xAA ~upper_key:0xBB);
  Sim.run_until env.sim 0.2;
  Router_agent.handle_session_join env.agent ~receiver:env.d1.Node.id
    ~group:minimal;
  Alcotest.(check bool) "admitted keyless" true
    (Router_agent.iface_active env.agent ~group:minimal ~toward:env.d1.Node.id);
  (* Never presents a key: grace (3 slots) expires, lockout begins. *)
  Sim.run_until env.sim 1.2;
  Alcotest.(check bool) "grace expired" false
    (Router_agent.iface_active env.agent ~group:minimal ~toward:env.d1.Node.id);
  Router_agent.handle_session_join env.agent ~receiver:env.d1.Node.id
    ~group:minimal;
  Alcotest.(check bool) "locked out" false
    (Router_agent.iface_active env.agent ~group:minimal ~toward:env.d1.Node.id);
  (* After the lockout passes a fresh join is admitted again. *)
  Sim.run_until env.sim 2.0;
  Router_agent.handle_session_join env.agent ~receiver:env.d1.Node.id
    ~group:minimal;
  Alcotest.(check bool) "re-admitted after lockout" true
    (Router_agent.iface_active env.agent ~group:minimal ~toward:env.d1.Node.id)

let test_session_join_to_non_minimal_rejected () =
  let env = make_env () in
  distribute env ~slot:2 ~tuples:(tuples_for ~slot:2 ~minimal_key:0xAA ~upper_key:0xBB);
  Sim.run_until env.sim 0.2;
  Router_agent.handle_session_join env.agent ~receiver:env.d1.Node.id
    ~group:upper;
  Alcotest.(check bool) "inflation via session-join blocked" false
    (Router_agent.iface_active env.agent ~group:upper ~toward:env.d1.Node.id)

let test_filter_blocks_data () =
  let env = make_env () in
  distribute env ~slot:2 ~tuples:(tuples_for ~slot:2 ~minimal_key:0xAA ~upper_key:0xBB);
  Sim.run_until env.sim 0.2;
  let got = ref 0 in
  Node.subscribe_local env.d1 ~group:upper (fun _ -> incr got);
  (* Put the interface on the tree WITHOUT a grant: the SIGMA filter must
     still block forwarding. *)
  Multicast.graft env.topo ~node:env.router ~group:upper
    ~down:(Option.get (Node.Itbl.find_opt env.router.Node.fib env.d1.Node.id));
  Node.originate env.src
    (Packet.make ~src:env.src.Node.id ~dst:(Packet.Multicast upper) ~size:500
       Payload.Raw);
  Sim.run_until env.sim 0.4;
  Alcotest.(check int) "blocked by filter" 0 !got;
  (* Now grant and retry. *)
  Router_agent.handle_subscribe env.agent ~receiver:env.d1.Node.id ~slot:2
    ~pairs:[ (upper, 0xBB) ];
  Node.originate env.src
    (Packet.make ~src:env.src.Node.id ~dst:(Packet.Multicast upper) ~size:500
       Payload.Raw);
  Sim.run_until env.sim 0.6;
  Alcotest.(check int) "forwarded once granted" 1 !got

let test_client_subscribe_ack_retransmit () =
  let env = make_env () in
  distribute env ~slot:2 ~tuples:(tuples_for ~slot:2 ~minimal_key:0xAA ~upper_key:0xBB);
  Sim.run_until env.sim 0.2;
  let client = Client.create ~width:16 env.topo ~host:env.d1 in
  Client.subscribe client ~slot:2 ~pairs:[ (minimal, 0xAA) ];
  Sim.run_until env.sim 1.0;
  Alcotest.(check bool) "granted via message path" true
    (Router_agent.iface_active env.agent ~group:minimal ~toward:env.d1.Node.id);
  (* Ack received: exactly one transmission, no retries. *)
  Alcotest.(check int) "single send" 1 (Client.messages_sent client);
  Alcotest.(check bool) "pairs recorded" true
    (List.mem (minimal, 0xAA) (Client.acked_pairs client ~slot:2))

let test_client_retransmits_without_ack () =
  let env = make_env () in
  (* No distribution: router has no keys, never acks (nothing valid). *)
  let client = Client.create ~width:16 env.topo ~host:env.d1 in
  Client.subscribe client ~slot:2 ~pairs:[ (minimal, 0xAA) ];
  (* Every 80 ms: the last retry leaves at 0.4 s. *)
  Sim.run_until env.sim 1.0;
  Alcotest.(check int) "initial + 5 retries" 6 (Client.messages_sent client)

let test_suppression_between_receivers () =
  (* Two receivers share a LAN interface: once the first subscription is
     acked, the second receiver's identical subscription is suppressed. *)
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let src = Topology.add_node topo Node.Host in
  let router = Topology.add_node topo Node.Edge_router in
  let lan = Topology.add_node topo Node.Lan in
  let a = Topology.add_node topo Node.Host in
  let b = Topology.add_node topo Node.Host in
  let connect x y =
    ignore
      (Topology.connect topo x y ~rate_bps:10_000_000. ~delay_s:0.001
         ~buffer_bytes:100_000 ())
  in
  connect src router;
  connect router lan;
  connect lan a;
  connect lan b;
  Topology.compute_routes topo;
  Topology.register_group topo ~group:minimal ~source:src;
  let agent = Router_agent.attach topo router in
  let ca = Client.create ~width:16 topo ~host:a in
  let cb = Client.create ~width:16 topo ~host:b in
  (* Real admission flow: the session-join grafts the router onto the
     source tree, so the subsequent special packets reach it. *)
  Client.session_join ca ~group:minimal;
  Sim.run_until sim 0.1;
  ignore
    (Special.distribute topo ~sender:src ~session:1 ~via_group:minimal
       ~width:16 ~slot:2 ~slot_duration
       ~tuples:[ Tuple.make ~group:minimal ~slot:2 ~keys:[ 0xAA ] ~minimal:true ]
       ());
  Sim.run_until sim 0.3;
  Client.subscribe ca ~slot:2 ~pairs:[ (minimal, 0xAA) ];
  Sim.run_until sim 0.5;
  Client.subscribe cb ~slot:2 ~pairs:[ (minimal, 0xAA) ];
  Sim.run_until sim 1.0;
  Alcotest.(check bool) "granted" true
    (Router_agent.iface_active agent ~group:minimal ~toward:a.Node.id);
  Alcotest.(check int) "first sent join + subscribe" 2
    (Client.messages_sent ca);
  Alcotest.(check int) "second suppressed" 0 (Client.messages_sent cb)

(* Collusion resistance (paper Section 4.2): with interface-specific
   keys the router pads each interface's components, so the lower key a
   receiver legitimately reconstructs validates only on its own
   interface. *)
let test_interface_keys_block_collusion () =
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let src = Topology.add_node topo Node.Host in
  let router = Topology.add_node topo Node.Edge_router in
  let d1 = Topology.add_node topo Node.Host in
  let d2 = Topology.add_node topo Node.Host in
  let connect a b =
    ignore
      (Topology.connect topo a b ~rate_bps:10_000_000. ~delay_s:0.002
         ~buffer_bytes:100_000 ())
  in
  connect src router;
  connect router d1;
  connect router d2;
  Topology.compute_routes topo;
  Topology.register_group topo ~group:minimal ~source:src;
  Topology.register_group topo ~group:upper ~source:src;
  let config =
    { Router_agent.default_config with Router_agent.interface_keys = true }
  in
  let agent = Router_agent.attach ~config topo router in
  Node.subscribe_local router ~group:minimal (fun _ -> ());
  Multicast.graft topo ~node:router ~group:minimal
    ~down:(Option.get (Node.Itbl.find_opt router.Node.fib d1.Node.id));
  Multicast.prune topo ~node:router ~group:minimal
    ~down:(Option.get (Node.Itbl.find_opt router.Node.fib d1.Node.id));
  (* Session of two consecutive groups; upper keys lambda_1, lambda_2. *)
  let lambda1 = 0x1111 and lambda2 = 0x2222 in
  ignore
    (Special.distribute topo ~sender:src ~session:1 ~via_group:minimal
       ~width:16 ~slot:2 ~slot_duration
       ~tuples:
         [
           Tuple.make ~group:minimal ~slot:2 ~keys:[ lambda1 ] ~minimal:true;
           Tuple.make ~group:(minimal + 1) ~slot:2 ~keys:[ lambda2 ]
             ~minimal:false;
         ]
       ());
  Sim.run_until sim 0.2;
  (* The router padded interface 1's components with p1 (group 1) and p2
     (group 2): receiver 1's lower keys. *)
  let link1 =
    (Option.get (Node.Itbl.find_opt router.Node.fib d1.Node.id)).Mcc_net.Link.id
  in
  let p1 = 0x0A0A and p2 = 0x0505 in
  Router_agent.note_pad agent ~link_id:link1 ~group:minimal ~guarded_slot:2
    ~pad:p1;
  Router_agent.note_pad agent ~link_id:link1 ~group:(minimal + 1)
    ~guarded_slot:2 ~pad:p2;
  let lower1 = lambda1 lxor p1 in
  let lower2 = lambda2 lxor p1 lxor p2 in
  (* Receiver 1 presents its own lower keys: accepted. *)
  Router_agent.handle_subscribe agent ~receiver:d1.Node.id ~slot:2
    ~pairs:[ (minimal, lower1); (minimal + 1, lower2) ];
  Alcotest.(check bool) "own interface, group 1" true
    (Router_agent.iface_active agent ~group:minimal ~toward:d1.Node.id);
  Alcotest.(check bool) "own interface, group 2" true
    (Router_agent.iface_active agent ~group:(minimal + 1) ~toward:d1.Node.id);
  (* A colluder on interface 2 replays receiver 1's lower keys: its own
     interface never forwarded those components, so they are garbage
     there. *)
  Router_agent.handle_subscribe agent ~receiver:d2.Node.id ~slot:2
    ~pairs:[ (minimal, lower1); (minimal + 1, lower2) ];
  Alcotest.(check bool) "collusion blocked, group 1" false
    (Router_agent.iface_active agent ~group:minimal ~toward:d2.Node.id);
  Alcotest.(check bool) "collusion blocked, group 2" false
    (Router_agent.iface_active agent ~group:(minimal + 1) ~toward:d2.Node.id);
  Alcotest.(check bool) "replayed keys tallied" true
    (Router_agent.guess_count agent ~group:minimal ~slot:2 > 0)

(* --- Router_agent.stats -------------------------------------------------- *)

(* The keyed subscribe path: every decision the handler takes must show
   up in the aggregate stats record. *)
let test_stats_subscribe_path () =
  let env = make_env () in
  distribute env ~slot:2
    ~tuples:(tuples_for ~slot:2 ~minimal_key:0xAA ~upper_key:0xBB);
  Sim.run_until env.sim 0.2;
  let s0 = Router_agent.stats env.agent in
  Alcotest.(check bool) "specials counted" true (s0.Router_agent.special_packets > 0);
  Alcotest.(check int) "quiet before traffic" 0
    (s0.Router_agent.subscriptions + s0.Router_agent.acks
    + s0.Router_agent.distinct_guesses);
  (* One valid key, one guess. *)
  Router_agent.handle_subscribe env.agent ~receiver:env.d1.Node.id ~slot:2
    ~pairs:[ (minimal, 0xAA); (upper, 0x11) ];
  let s1 = Router_agent.stats env.agent in
  Alcotest.(check int) "one subscription" 1 s1.Router_agent.subscriptions;
  Alcotest.(check int) "one key accepted" 1 s1.Router_agent.keys_accepted;
  Alcotest.(check int) "one key rejected" 1 s1.Router_agent.keys_rejected;
  Alcotest.(check int) "acked the valid part" 1 s1.Router_agent.acks;
  Alcotest.(check int) "newly active iface gets upgrade grace" 1
    s1.Router_agent.upgrade_graces;
  Alcotest.(check int) "the bad key is a guess" 1
    s1.Router_agent.distinct_guesses;
  (* Replaying the same wrong key is rejected again but is not a new
     distinct guess; an all-invalid subscribe earns no ack. *)
  Router_agent.handle_subscribe env.agent ~receiver:env.d1.Node.id ~slot:2
    ~pairs:[ (upper, 0x11) ];
  let s2 = Router_agent.stats env.agent in
  Alcotest.(check int) "second subscription" 2 s2.Router_agent.subscriptions;
  Alcotest.(check int) "rejected again" 2 s2.Router_agent.keys_rejected;
  Alcotest.(check int) "still one distinct guess" 1
    s2.Router_agent.distinct_guesses;
  Alcotest.(check int) "no ack for an all-invalid subscribe" 1
    s2.Router_agent.acks;
  Router_agent.handle_unsubscribe env.agent ~receiver:env.d1.Node.id
    ~groups:[ minimal ];
  Alcotest.(check int) "unsubscribe counted" 1
    (Router_agent.stats env.agent).Router_agent.unsubscribes;
  (* A wrong key for the next distributed slot is a guess of its own:
     the distinct guesses add up across slots. *)
  distribute env ~slot:3
    ~tuples:(tuples_for ~slot:3 ~minimal_key:0xCC ~upper_key:0xDD);
  Sim.run_until env.sim 0.45;
  Router_agent.handle_subscribe env.agent ~receiver:env.d1.Node.id ~slot:3
    ~pairs:[ (upper, 0x11) ];
  Alcotest.(check int) "guesses counted across slots" 2
    (Router_agent.stats env.agent).Router_agent.distinct_guesses

(* The FEC path across slots: at the default [Repetition 2], each slot's
   single chunk arrives twice, and the second copy is a duplicate.  The
   totals must keep every slot's share after newer slots arrive.  Each
   distribution follows a slot of simulated time, the first so that the
   router's graft reaches the sender before any special leaves. *)
let test_stats_fec_across_slots () =
  let env = make_env () in
  List.iteri
    (fun i slot ->
      Sim.run_until env.sim (float_of_int (i + 1) *. slot_duration);
      distribute env ~slot
        ~tuples:(tuples_for ~slot ~minimal_key:0xAA ~upper_key:0xBB))
    [ 2; 3; 4 ];
  Sim.run_until env.sim (4. *. slot_duration);
  let s = Router_agent.stats env.agent in
  Alcotest.(check int) "two specials per slot" 6 s.Router_agent.special_packets;
  Alcotest.(check int) "one duplicate per slot" 3
    s.Router_agent.suppressed_duplicates

(* The keyless session-join path: grace admission, duplicate
   suppression while the interface is active, and the lockout when the
   grace lapses without a key. *)
let test_stats_join_suppression_and_lockout () =
  let env = make_env () in
  distribute env ~slot:2
    ~tuples:(tuples_for ~slot:2 ~minimal_key:0xAA ~upper_key:0xBB);
  Sim.run_until env.sim 0.2;
  Router_agent.handle_session_join env.agent ~receiver:env.d1.Node.id
    ~group:minimal;
  let s1 = Router_agent.stats env.agent in
  Alcotest.(check int) "grace admission" 1 s1.Router_agent.grace_admissions;
  (* The interface already forwards the group: a repeat join must be
     suppressed, not re-granted. *)
  Router_agent.handle_session_join env.agent ~receiver:env.d1.Node.id
    ~group:minimal;
  let s2 = Router_agent.stats env.agent in
  Alcotest.(check int) "duplicate join suppressed"
    (s1.Router_agent.suppressed_duplicates + 1)
    s2.Router_agent.suppressed_duplicates;
  Alcotest.(check int) "no second admission" 1
    s2.Router_agent.grace_admissions;
  (* Never presents a key: when the sweep revokes the keyless grant it
     starts a lockout, and that shows in the stats. *)
  Sim.run_until env.sim 1.2;
  let s3 = Router_agent.stats env.agent in
  Alcotest.(check bool) "lockout counted" true (s3.Router_agent.lockouts >= 1)

let test_tuple_wire_bytes () =
  let t = Tuple.make ~group:1 ~slot:1 ~keys:[ 1; 2; 3 ] ~minimal:false in
  (* 4 (addr) + 1 (flags) + 3 x 2 (16-bit keys). *)
  Alcotest.(check int) "tuple bytes" 11 (Tuple.wire_bytes ~width:16 t);
  Alcotest.(check int) "subscribe bytes" (28 + 4 + 6)
    (Messages.subscribe_bytes ~width:16 [ (1, 2) ])

let suite =
  ( "sigma",
    [
      Alcotest.test_case "keystore and grant" `Quick test_keystore_and_grant;
      Alcotest.test_case "invalid key denied" `Quick
        test_invalid_key_denied_and_tallied;
      Alcotest.test_case "grant expires" `Quick test_grant_expires;
      Alcotest.test_case "unsubscribe immediate" `Quick
        test_unsubscribe_immediate;
      Alcotest.test_case "session-join grace & lockout" `Quick
        test_session_join_grace_and_lockout;
      Alcotest.test_case "session-join non-minimal" `Quick
        test_session_join_to_non_minimal_rejected;
      Alcotest.test_case "filter blocks data" `Quick test_filter_blocks_data;
      Alcotest.test_case "client subscribe/ack" `Quick
        test_client_subscribe_ack_retransmit;
      Alcotest.test_case "client retransmits" `Quick
        test_client_retransmits_without_ack;
      Alcotest.test_case "ack suppression on LAN" `Quick
        test_suppression_between_receivers;
      Alcotest.test_case "interface keys block collusion" `Quick
        test_interface_keys_block_collusion;
      Alcotest.test_case "stats: subscribe path" `Quick
        test_stats_subscribe_path;
      Alcotest.test_case "stats: join suppression & lockout" `Quick
        test_stats_join_suppression_and_lockout;
      Alcotest.test_case "stats: FEC duplicates across slots" `Quick
        test_stats_fec_across_slots;
      Alcotest.test_case "wire sizes" `Quick test_tuple_wire_bytes;
    ] )
