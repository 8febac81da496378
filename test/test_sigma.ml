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
    ~down:(Option.get (Node.route router d1.Node.id));
  Multicast.prune topo ~node:router ~group:minimal
    ~down:(Option.get (Node.route router d1.Node.id));
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
    ~down:(Option.get (Node.route env.router env.d1.Node.id));
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
    ~down:(Option.get (Node.route router d1.Node.id));
  Multicast.prune topo ~node:router ~group:minimal
    ~down:(Option.get (Node.route router d1.Node.id));
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
    (Option.get (Node.route router d1.Node.id)).Mcc_net.Link.id
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
    s.Router_agent.fec_duplicates

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
    (s1.Router_agent.suppressed_joins + 1)
    s2.Router_agent.suppressed_joins;
  Alcotest.(check int) "no second admission" 1
    s2.Router_agent.grace_admissions;
  (* Never presents a key: when the sweep revokes the keyless grant it
     starts a lockout, and that shows in the stats. *)
  Sim.run_until env.sim 1.2;
  let s3 = Router_agent.stats env.agent in
  Alcotest.(check bool) "lockout counted" true (s3.Router_agent.lockouts >= 1)

(* --- the expiry sweep ------------------------------------------------------ *)

(* Hooks the router's special-packet intercept to note when the first
   special lands: the agent dates a slot's entry from that instant. *)
let note_first_special env =
  let landed = ref Float.nan in
  let on_special = Option.get env.router.Node.intercept in
  env.router.Node.intercept <-
    Some
      (fun pkt ->
        if Float.is_nan !landed then landed := Sim.now env.sim;
        on_special pkt);
  landed

(* A slot entry is dated two durations after its first special lands and
   kept for ten durations more, 3 s in all.  The first special to reach
   the router is the slot's second copy, at about 64.5 ms (the first
   leaves before the router's graft reaches the sender), so the entry
   expires at about 3.0645 s.  The sweep runs every 50 ms: the key must
   still validate between its expiry and the sweep at 3.1 s, and fail,
   as a guess, from that sweep on. *)
let test_slot_entry_purged_at_first_sweep_after_expiry () =
  let env = make_env () in
  let landed = note_first_special env in
  distribute env ~slot:2
    ~tuples:(tuples_for ~slot:2 ~minimal_key:0xAA ~upper_key:0xBB);
  Sim.run_until env.sim 0.2;
  let expiry = !landed +. (12. *. slot_duration) in
  Alcotest.(check bool) "expiry falls between the sweeps at 3.05 s and 3.1 s"
    true
    (expiry > 3.05 && expiry < 3.08);
  let accepted () = (Router_agent.stats env.agent).Router_agent.keys_accepted in
  let submit_at time =
    Sim.run_until env.sim time;
    Router_agent.handle_subscribe env.agent ~receiver:env.d1.Node.id ~slot:2
      ~pairs:[ (upper, 0xBB) ]
  in
  submit_at 2.9;
  Alcotest.(check int) "accepted before its expiry" 1 (accepted ());
  submit_at 3.08;
  Alcotest.(check int) "accepted after its expiry, before the next sweep" 2
    (accepted ());
  Alcotest.(check int) "no guess yet" 0
    (Router_agent.guess_count env.agent ~group:upper ~slot:2);
  submit_at 3.11;
  Alcotest.(check int) "rejected from the first sweep after its expiry" 2
    (accepted ());
  Alcotest.(check int) "and counted as a guess" 1
    (Router_agent.guess_count env.agent ~group:upper ~slot:2)

(* A receiver holding only the session's upper group keeps the router on
   the minimal group's tree, its special-packet channel, until the upper
   grant lapses: slot 2 ends three durations after its first special
   lands (about 64.5 ms, as above), and two grace slots follow, so at
   about 1.3145 s.  The channel is released at the first sweep after
   that, at 1.35 s. *)
let test_control_channel_held_by_higher_group () =
  let env = make_env () in
  let landed = note_first_special env in
  distribute env ~slot:2
    ~tuples:(tuples_for ~slot:2 ~minimal_key:0xAA ~upper_key:0xBB);
  Sim.run_until env.sim 0.2;
  let lapse = !landed +. (5. *. slot_duration) in
  Alcotest.(check bool) "the grant lapses between the sweeps at 1.3 s and 1.35 s"
    true
    (lapse > 1.3 && lapse < 1.33);
  Router_agent.handle_subscribe env.agent ~receiver:env.d1.Node.id ~slot:2
    ~pairs:[ (upper, 0xBB) ];
  let on_channel () = Node.Itbl.mem env.router.Node.local_groups minimal in
  Sim.run_until env.sim 0.3;
  Alcotest.(check bool) "held while the upper grant is active" true
    (on_channel ());
  Sim.run_until env.sim 1.33;
  Alcotest.(check bool) "upper grant lapsed" false
    (Router_agent.iface_active env.agent ~group:upper ~toward:env.d1.Node.id);
  Alcotest.(check bool) "held until the next sweep" true (on_channel ());
  Sim.run_until env.sim 1.36;
  Alcotest.(check bool) "released at the first sweep after the lapse" false
    (on_channel ())

(* Three interfaces whose keyless grants lapse at one sweep: their
   lockouts are recorded in link-id order.  Padding links give the
   interfaces ids 2, 16 and 20, which a 16-bucket table keeps in buckets
   2, 0 and 4, and their groups (950, 940, 945) are in neither order, so
   neither table order, nor its reverse, nor group order gives link-id
   order. *)
let test_evictions_in_link_id_order () =
  Mcc_obs.Timeseries.enable ~dt:1.0 ();
  Fun.protect ~finally:Mcc_obs.Timeseries.disable @@ fun () ->
  let sim = Sim.create () in
  let topo = Topology.create sim in
  let src = Topology.add_node topo Node.Host in
  let router = Topology.add_node topo Node.Edge_router in
  let connect a b =
    fst
      (Topology.connect topo a b ~rate_bps:10_000_000. ~delay_s:0.002
         ~buffer_bytes:100_000 ())
  in
  let pad n =
    for _ = 1 to n do
      ignore
        (connect (Topology.add_node topo Node.Host)
           (Topology.add_node topo Node.Host))
    done
  in
  let host () =
    let h = Topology.add_node topo Node.Host in
    (h, connect router h)
  in
  ignore (connect src router);
  let d1, l1 = host () in
  pad 6;
  let d2, l2 = host () in
  pad 1;
  let d3, l3 = host () in
  Alcotest.(check (list int)) "link ids" [ 2; 16; 20 ]
    (List.map (fun (l : Mcc_net.Link.t) -> l.Mcc_net.Link.id) [ l1; l2; l3 ]);
  Topology.compute_routes topo;
  let joins = [ (d1, 950); (d2, 940); (d3, 945) ] in
  List.iter
    (fun (_, group) -> Topology.register_group topo ~group ~source:src)
    joins;
  let agent = Router_agent.attach topo router in
  Sim.run_until sim 0.12;
  List.iter
    (fun ((d : Node.t), group) ->
      Router_agent.handle_session_join agent ~receiver:d.Node.id ~group)
    joins;
  Sim.run_until sim 2.0;
  let evictions =
    Option.value ~default:[]
      (List.assoc_opt "sigma.evictions" (Mcc_obs.Timeseries.snapshot ()))
  in
  Alcotest.(check (list (float 0.))) "groups, by link id" [ 950.; 940.; 945. ]
    (List.map snd evictions);
  Alcotest.(check bool) "at one sweep" true
    (match evictions with
    | (t0, _) :: rest -> List.for_all (fun (t, _) -> Float.equal t t0) rest
    | [] -> false)

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
      Alcotest.test_case "sweep: slot entry purged after expiry" `Quick
        test_slot_entry_purged_at_first_sweep_after_expiry;
      Alcotest.test_case "sweep: control channel held by higher group" `Quick
        test_control_channel_held_by_higher_group;
      Alcotest.test_case "sweep: evictions in link-id order" `Quick
        test_evictions_in_link_id_order;
      Alcotest.test_case "wire sizes" `Quick test_tuple_wire_bytes;
    ] )
