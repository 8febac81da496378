(* Attack subsystem tests: the strategies' declarative shape, instance
   behaviour driven directly (pulse gating, guess budget and cursor,
   stale replay, trace signatures), the escalating session-join lockout
   the matrix evaluation motivated, full matrix cells end to end, and
   byte-identical matrix sink output across job counts. *)

module Spec = Mcc_core.Spec
module Sink = Mcc_core.Sink
module E = Mcc_core.Experiments
module Flid = Mcc_mcast.Flid
module Key = Mcc_delta.Key
module Prng = Mcc_util.Prng
module Json = Mcc_obs.Json
module Tracer = Mcc_obs.Tracer
module Strategy = Mcc_attack.Strategy
module Matrix = Mcc_attack.Matrix
module Scorecard = Mcc_attack.Scorecard
module Sim = Mcc_engine.Sim
module Topology = Mcc_net.Topology
module Node = Mcc_net.Node
module Multicast = Mcc_net.Multicast
module Tuple = Mcc_sigma.Tuple
module Special = Mcc_sigma.Special
module Router_agent = Mcc_sigma.Router_agent

let contains ~needle haystack =
  let n = String.length needle in
  let rec find i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || find (i + 1))
  in
  find 0

(* --- catalogue shape ---------------------------------------------------- *)

let test_catalogue () =
  let cat = List.map Strategy.of_kind Matrix.default_attacks in
  Alcotest.(check int) "six strategies" 6 (List.length cat);
  let names = List.map (fun (s : Strategy.t) -> s.Strategy.name) cat in
  Alcotest.(check int) "names unique" 6
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (s : Strategy.t) ->
      Alcotest.(check string)
        (s.Strategy.name ^ " named after its kind")
        (Spec.attack_str s.Strategy.kind)
        s.Strategy.name;
      Alcotest.(check bool) (s.Strategy.name ^ " documented") true
        (s.Strategy.paper <> "" && s.Strategy.doc <> ""
        && s.Strategy.expected <> "");
      (* of_kind must hand back the same strategy for the kind it
         carries. *)
      Alcotest.(check string)
        (s.Strategy.name ^ " of_kind round-trip")
        s.Strategy.name
        (Strategy.of_kind s.Strategy.kind).Strategy.name)
    cat

(* --- instance behaviour ------------------------------------------------- *)

let instantiate kind ~attack_at =
  (Strategy.of_kind kind).Strategy.instantiate ~attack_at ~slot_duration:0.25
    ~prng:(Prng.create 99)

(* A synthetic subscription context: entitled to the minimal group of a
   five-group session. *)
let ctx ?(slot = 10) ?(history = []) ~prng () =
  {
    Flid.actx_time = 100.;
    actx_slot = slot;
    actx_entitled = [ (900, 0xAA) ];
    actx_groups = [ 900; 901; 902; 903; 904 ];
    actx_fresh_key = (fun () -> Key.nonce prng ~width:16);
    actx_history = history;
  }

let test_pulse_gating () =
  let inst =
    instantiate (Spec.Pulse_inflation { period_s = 10.; duty = 0.3 })
      ~attack_at:30.
  in
  let active time = inst.Strategy.active ~time in
  Alcotest.(check bool) "dormant before attack_at" false (active 29.9);
  Alcotest.(check bool) "on at burst start" true (active 30.0);
  Alcotest.(check bool) "on inside the duty window" true (active 32.9);
  Alcotest.(check bool) "off after the duty window" false (active 33.1);
  Alcotest.(check bool) "on again next period" true (active 40.5);
  Alcotest.(check bool) "off again next period" false (active 43.5)

let test_guess_budget_and_cursor () =
  let prng = Prng.create 5 in
  let inst =
    instantiate (Spec.Key_guessing { budget_per_slot = 2 }) ~attack_at:30.
  in
  let guessed_groups sub =
    List.filter_map
      (fun (g, _) -> if g = 900 then None else Some g)
      sub.Flid.sub_pairs
  in
  (match inst.Strategy.on_slot (ctx ~prng ()) with
  | [ sub ] ->
      Alcotest.(check int) "submitted for the guarded slot" 10
        sub.Flid.sub_slot;
      Alcotest.(check bool) "honest entitlement kept" true
        (List.mem_assoc 900 sub.Flid.sub_pairs);
      Alcotest.(check (list int)) "budget guesses, round-robin from 901"
        [ 901; 902 ] (guessed_groups sub)
  | subs ->
      Alcotest.fail (Printf.sprintf "expected 1 submission, got %d"
                       (List.length subs)));
  (* The cursor advances: the next slot probes the next two groups. *)
  match inst.Strategy.on_slot (ctx ~slot:11 ~prng ()) with
  | [ sub ] ->
      Alcotest.(check (list int)) "cursor advanced to 903"
        [ 903; 904 ]
        (guessed_groups sub)
  | _ -> Alcotest.fail "expected 1 submission"

let test_replay_behaviour () =
  let prng = Prng.create 6 in
  let inst =
    instantiate (Spec.Stale_replay { lag_slots = 4 }) ~attack_at:30.
  in
  (* No submission old enough: only the honest one goes out. *)
  let fresh = { Flid.sub_slot = 8; sub_pairs = [ (900, 0x1); (901, 0x2) ] } in
  (match inst.Strategy.on_slot (ctx ~history:[ fresh ] ~prng ()) with
  | [ honest ] ->
      Alcotest.(check int) "honest submission only" 10 honest.Flid.sub_slot
  | subs ->
      Alcotest.fail (Printf.sprintf "expected 1 submission, got %d"
                       (List.length subs)));
  (* A submission >= lag_slots old is replayed against the current
     slot, keys verbatim. *)
  let stale = { Flid.sub_slot = 5; sub_pairs = [ (901, 0x2B); (902, 0x2C) ] } in
  match inst.Strategy.on_slot (ctx ~history:[ fresh; stale ] ~prng ()) with
  | [ honest; replayed ] ->
      Alcotest.(check int) "honest part intact" 10 honest.Flid.sub_slot;
      Alcotest.(check int) "replay retargets the current slot" 10
        replayed.Flid.sub_slot;
      Alcotest.(check bool) "stale keys verbatim" true
        (replayed.Flid.sub_pairs = stale.Flid.sub_pairs)
  | subs ->
      Alcotest.fail (Printf.sprintf "expected 2 submissions, got %d"
                       (List.length subs))

(* Strategies announce themselves on the trace stream: one "guess"
   event per probing slot, one "replay" event per replayed submission,
   under the attack.strategy component. *)
let test_trace_signatures () =
  let records = ref [] in
  let sink =
    Tracer.install ~components:[ "attack.strategy" ] (fun r ->
        records := r :: !records)
  in
  Fun.protect
    ~finally:(fun () -> Tracer.remove sink)
    (fun () ->
      let prng = Prng.create 7 in
      let g =
        instantiate (Spec.Key_guessing { budget_per_slot = 2 }) ~attack_at:30.
      in
      ignore (g.Strategy.on_slot (ctx ~prng ()));
      let r =
        instantiate (Spec.Stale_replay { lag_slots = 4 }) ~attack_at:30.
      in
      let stale = { Flid.sub_slot = 5; sub_pairs = [ (901, 0x2B) ] } in
      ignore (r.Strategy.on_slot (ctx ~history:[ stale ] ~prng ())));
  let events = List.rev_map (fun r -> r.Tracer.event) !records in
  Alcotest.(check (list string)) "one event per strategy action"
    [ "guess"; "replay" ] events;
  List.iter
    (fun r ->
      Alcotest.(check string) "component" "attack.strategy" r.Tracer.component;
      Alcotest.(check bool) "slot attribute present" true
        (List.mem_assoc "slot" r.Tracer.attrs))
    !records;
  match !records with
  | [ _; guess ] ->
      Alcotest.(check bool) "guess records its budget" true
        (List.assoc_opt "budget" guess.Tracer.attrs = Some (Json.Int 2))
  | _ -> Alcotest.fail "expected 2 trace records"

(* --- escalating session-join lockout ------------------------------------ *)

(* sender host -- edge router -- receiver host, the same rig as
   test_sigma: slot keys distributed at slot 2, 0.25 s slots, so the
   3-slot join grace is 0.75 s and the base lockout 0.25 s. *)
type env = {
  sim : Sim.t;
  d1 : Node.t;
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
  let connect a b =
    ignore
      (Topology.connect topo a b ~rate_bps:10_000_000. ~delay_s:0.002
         ~buffer_bytes:100_000 ())
  in
  connect src router;
  connect router d1;
  Topology.compute_routes topo;
  Topology.register_group topo ~group:minimal ~source:src;
  Topology.register_group topo ~group:upper ~source:src;
  let agent = Router_agent.attach topo router in
  Node.subscribe_local router ~group:minimal (fun _ -> ());
  Multicast.graft topo ~node:router ~group:minimal
    ~down:(Option.get (Node.route router d1.Node.id));
  Multicast.prune topo ~node:router ~group:minimal
    ~down:(Option.get (Node.route router d1.Node.id));
  ignore
    (Special.distribute topo ~sender:src ~session:1 ~via_group:minimal
       ~width:16 ~slot:2 ~slot_duration
       ~tuples:
         [
           Tuple.make ~group:minimal ~slot:2 ~keys:[ 0xAA ] ~minimal:true;
           Tuple.make ~group:upper ~slot:2 ~keys:[ 0xBB ] ~minimal:false;
         ]
       ());
  Sim.run_until sim 0.2;
  { sim; d1; agent }

let join env =
  Router_agent.handle_session_join env.agent ~receiver:env.d1.Node.id
    ~group:minimal

let active env =
  Router_agent.iface_active env.agent ~group:minimal ~toward:env.d1.Node.id

(* Letting the join grace lapse twice without ever presenting a key
   must charge a longer lockout the second time: with 0.25 s slots the
   first strike pauses the interface for one slot, the second for two.
   A flat (non-escalating) lockout would re-admit at t=2.5. *)
let test_escalating_join_lockout () =
  let env = make_env () in
  join env;
  Alcotest.(check bool) "first keyless join admitted" true (active env);
  (* Grace lapses at 0.95; strike 1 charges a 0.25 s lockout. *)
  Sim.run_until env.sim 1.3;
  Alcotest.(check bool) "first grace lapsed" false (active env);
  join env;
  Alcotest.(check bool) "re-admitted after the base lockout" true (active env);
  (* Grace lapses again at 2.05; strike 2 doubles the lockout to 0.5 s,
     so at 2.5 the interface is still paused. *)
  Sim.run_until env.sim 2.5;
  join env;
  Alcotest.(check bool) "second strike locks out twice as long" false
    (active env);
  Sim.run_until env.sim 2.7;
  join env;
  Alcotest.(check bool) "admitted once the doubled lockout passes" true
    (active env);
  let s = Router_agent.stats env.agent in
  Alcotest.(check bool) "both strikes counted" true
    (s.Router_agent.lockouts >= 2)

(* Leaving before the keyless grace expires owes the same lockout as
   letting it expire — otherwise join/leave cycling inside the grace
   window rides the session for free (grace churn). *)
let test_early_leave_charges_lockout () =
  let env = make_env () in
  join env;
  Alcotest.(check bool) "keyless join admitted" true (active env);
  Router_agent.handle_unsubscribe env.agent ~receiver:env.d1.Node.id
    ~groups:[ minimal ];
  Alcotest.(check bool) "gone after the leave" false (active env);
  join env;
  Alcotest.(check bool) "immediate rejoin denied" false (active env);
  let s = Router_agent.stats env.agent in
  Alcotest.(check bool) "early leave counted as a lockout" true
    (s.Router_agent.lockouts >= 1);
  (* The churn penalty is a pause, not a ban. *)
  Sim.run_until env.sim 0.5;
  join env;
  Alcotest.(check bool) "admitted after the lockout" true (active env)

(* --- matrix cells ------------------------------------------------------- *)

let cell ?(attack = Spec.Persistent_inflation) ?(defence = Spec.Delta_sigma) ()
    =
  { Spec.default_adversary with Spec.attack; defence }

let test_cell_inflation () =
  let undefended = Matrix.run_cell (cell ~defence:Spec.Undefended ()) in
  Alcotest.(check bool) "plain: honest session starved" true
    (undefended.E.honest_loss_pct > 50.);
  Alcotest.(check bool) "plain: attacker well past a fair share" true
    (undefended.E.attacker_gain > 2.);
  Alcotest.(check (option (float 1e9))) "plain: never contained" None
    undefended.E.containment_s;
  let defended = Matrix.run_cell (cell ()) in
  Alcotest.(check bool) "delta+sigma: contained" true
    (defended.E.containment_s <> None);
  Alcotest.(check bool) "delta+sigma: honest goodput held" true
    (defended.E.honest_loss_pct < 10.);
  Alcotest.(check bool) "delta+sigma: attacker near entitlement" true
    (defended.E.attacker_gain < 2.);
  Alcotest.(check bool) "delta+sigma: forged keys rejected" true
    (defended.E.keys_rejected > 0)

let test_cell_guess_and_replay () =
  let guess =
    Matrix.run_cell
      (cell ~attack:(Spec.Key_guessing { budget_per_slot = 4 }) ())
  in
  Alcotest.(check bool) "guesses rejected at the edge" true
    (guess.E.keys_rejected > 0);
  Alcotest.(check bool) "guesser contained" true
    (guess.E.containment_s <> None);
  let replay =
    Matrix.run_cell (cell ~attack:(Spec.Stale_replay { lag_slots = 4 }) ())
  in
  Alcotest.(check bool) "stale keys rejected" true
    (replay.E.keys_rejected > 0);
  Alcotest.(check bool) "replayer contained" true
    (replay.E.containment_s <> None)

let test_cell_churn () =
  let churn =
    Matrix.run_cell
      (cell ~attack:(Spec.Grace_churn { period_slots = 2.5 }) ())
  in
  Alcotest.(check bool) "churn draws lockouts" true (churn.E.lockouts > 0);
  Alcotest.(check bool) "churn contained" true (churn.E.containment_s <> None);
  Alcotest.(check bool) "honest goodput held through churn" true
    (churn.E.honest_loss_pct < 10.)

(* --- determinism and scorecard ------------------------------------------ *)

let test_matrix_determinism () =
  let entries =
    Matrix.entries
      ~attacks:[ Spec.Persistent_inflation ]
      ~protocols:[ Spec.Flid_ds ]
      ~defences:[ Spec.Undefended; Spec.Delta_sigma ]
      ()
  in
  let capture jobs =
    let buf = Buffer.create 4096 in
    let rows =
      Matrix.run ~jobs ~sinks:[ Sink.jsonl (Buffer.add_string buf) ] entries
    in
    (Buffer.contents buf, rows)
  in
  let j1, rows = capture 1 in
  let j4, _ = capture 4 in
  Alcotest.(check string) "jsonl byte-identical, jobs 1 vs 4" j1 j4;
  Alcotest.(check bool) "wall clock stripped" false
    (contains ~needle:"wall_s" j1);
  Alcotest.(check int) "one line per cell" (List.length entries)
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' j1)));
  let card = Scorecard.to_string rows in
  Alcotest.(check string) "scorecard deterministic" card
    (Scorecard.to_string rows);
  Alcotest.(check bool) "plain cell breached" true
    (contains ~needle:"BREACH" card);
  Alcotest.(check bool) "delta+sigma cell contained" true
    (contains ~needle:"contained" card);
  Alcotest.(check bool) "headline claim" true
    (contains ~needle:"DELTA+SIGMA contains every attack" card)

let suite =
  ( "attack",
    [
      Alcotest.test_case "strategy catalogue" `Quick test_catalogue;
      Alcotest.test_case "pulse gating" `Quick test_pulse_gating;
      Alcotest.test_case "guess budget & cursor" `Quick
        test_guess_budget_and_cursor;
      Alcotest.test_case "stale replay" `Quick test_replay_behaviour;
      Alcotest.test_case "trace signatures" `Quick test_trace_signatures;
      Alcotest.test_case "escalating join lockout" `Quick
        test_escalating_join_lockout;
      Alcotest.test_case "early leave charges lockout" `Quick
        test_early_leave_charges_lockout;
      Alcotest.test_case "cell: inflation" `Slow test_cell_inflation;
      Alcotest.test_case "cell: guess & replay" `Slow
        test_cell_guess_and_replay;
      Alcotest.test_case "cell: grace churn" `Slow test_cell_churn;
      Alcotest.test_case "matrix determinism & scorecard" `Slow
        test_matrix_determinism;
    ] )
