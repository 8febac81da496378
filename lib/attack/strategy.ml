module Spec = Mcc_core.Spec
module Flid = Mcc_mcast.Flid
module Key = Mcc_delta.Key
module Prng = Mcc_util.Prng
module Meter = Mcc_util.Meter
module Sim = Mcc_engine.Sim
module Node = Mcc_net.Node
module Packet = Mcc_net.Packet
module Topology = Mcc_net.Topology
module Multicast = Mcc_net.Multicast
module Client = Mcc_sigma.Client
module Metrics = Mcc_obs.Metrics
module Tracer = Mcc_obs.Tracer
module Timeseries = Mcc_obs.Timeseries
module Json = Mcc_obs.Json
module Prof = Mcc_obs.Prof

type instance = {
  label : string;
  active : time:float -> bool;
  on_slot : Flid.adv_ctx -> Flid.submission list;
  on_key_result : slot:int -> group:int -> accepted:bool -> unit;
}

type t = {
  name : string;
  kind : Spec.attack_kind;
  paper : string;
  doc : string;
  expected : string;
  instantiate :
    attack_at:float -> slot_duration:float -> prng:Prng.t -> instance;
}

let trace ~time event attrs =
  if Tracer.enabled () then
    Tracer.emit ~sim_time:time ~component:"attack.strategy" ~event attrs

let no_key_result ~slot:_ ~group:_ ~accepted:_ = ()

(* The inflation submission every claim-everything strategy shares:
   honest entitlement plus one guessed key per uncovered group
   (Flid.inflation_guesses is the paper's Figure 1 misbehaviour). *)
let inflation_submissions ctx =
  let guesses = Flid.inflation_guesses ctx in
  Metrics.tick "attack.submissions";
  Metrics.tick "attack.guesses" ~by:(List.length guesses);
  trace ~time:ctx.Flid.actx_time "inflate" (fun () ->
      [
        ("slot", Json.Int ctx.Flid.actx_slot);
        ("guesses", Json.Int (List.length guesses));
      ]);
  [
    {
      Flid.sub_slot = ctx.Flid.actx_slot;
      sub_pairs = ctx.Flid.actx_entitled @ guesses;
    };
  ]

let persistent =
  {
    name = "inflate";
    kind = Spec.Persistent_inflation;
    paper = "Section 2, Figure 1";
    doc =
      "From the attack time on, claim every group of the session: IGMP-join \
       everything on a plain edge, or submit the honest keys plus one random \
       guess per ineligible group under DELTA.";
    expected =
      "Captures the bottleneck against plain IGMP; DELTA+SIGMA rejects the \
       guessed keys, so the attacker keeps only its entitled level.";
    instantiate =
      (fun ~attack_at ~slot_duration:_ ~prng:_ ->
        {
          label = "inflate";
          active = (fun ~time -> time >= attack_at);
          on_slot = inflation_submissions;
          on_key_result = no_key_result;
        });
  }

let pulse ~period_s ~duty =
  {
    name = "pulse";
    kind = Spec.Pulse_inflation { period_s; duty };
    paper = "Section 3.1.2 (RED averaging)";
    doc =
      "On-off inflation: misbehave for a [duty] fraction of every \
       [period_s]-second cycle, sized near RED's averaging time constant so \
       each burst ends before the smoothed queue estimate fully reacts, then \
       behave until the next cycle.";
    expected =
      "Averages the damage of persistent inflation down by the duty cycle \
       against plain IGMP; DELTA+SIGMA contains every burst the same way it \
       contains persistent inflation.";
    instantiate =
      (fun ~attack_at ~slot_duration:_ ~prng:_ ->
        {
          label = "pulse";
          active =
            (fun ~time ->
              time >= attack_at
              && Float.rem (time -. attack_at) period_s < duty *. period_s);
          on_slot = inflation_submissions;
          on_key_result = no_key_result;
        });
  }

let guess ~budget_per_slot =
  {
    name = "guess";
    kind = Spec.Key_guessing { budget_per_slot };
    paper = "Section 4.1 (key width and guessing)";
    doc =
      "Submit the honest keys plus at most [budget_per_slot] random guesses \
       per slot, round-robin over the ineligible groups, and learn from the \
       router's acks which guesses (with probability 2^-w each) validated.";
    expected =
      "Every guess lands in the router's per-(group, slot) guess tally \
       (sigma.guesses) and rejected-key count; with 16-bit keys the expected \
       payoff is negligible, so the attacker stays at its entitled level.";
    instantiate =
      (fun ~attack_at ~slot_duration:_ ~prng:_ ->
        let cursor = ref 0 in
        let hits = ref 0 in
        {
          label = "guess";
          active = (fun ~time -> time >= attack_at);
          on_slot =
            (fun ctx ->
              let covered = List.map fst ctx.Flid.actx_entitled in
              let uncovered =
                List.filter
                  (fun g -> not (List.mem g covered))
                  ctx.Flid.actx_groups
              in
              let n = List.length uncovered in
              let picks =
                if n = 0 then []
                else
                  List.init
                    (min budget_per_slot n)
                    (fun i -> List.nth uncovered ((!cursor + i) mod n))
              in
              cursor := !cursor + List.length picks;
              let guesses =
                List.map (fun g -> (g, ctx.Flid.actx_fresh_key ())) picks
              in
              Metrics.tick "attack.submissions";
              Metrics.tick "attack.guesses" ~by:(List.length guesses);
              trace ~time:ctx.Flid.actx_time "guess" (fun () ->
                  [
                    ("slot", Json.Int ctx.Flid.actx_slot);
                    ("budget", Json.Int budget_per_slot);
                    ("guesses", Json.Int (List.length guesses));
                    ("hits", Json.Int !hits);
                  ]);
              [
                {
                  Flid.sub_slot = ctx.Flid.actx_slot;
                  sub_pairs = ctx.Flid.actx_entitled @ guesses;
                };
              ]);
          on_key_result =
            (fun ~slot:_ ~group:_ ~accepted -> if accepted then incr hits);
        });
  }

let replay ~lag_slots =
  {
    name = "replay";
    kind = Spec.Stale_replay { lag_slots };
    paper = "Section 3.2.2 (per-slot key expiry)";
    doc =
      "Keep the honest subscription but additionally resubmit, for the \
       current guarded slot, the keys of a submission at least [lag_slots] \
       slots old — trying to renew with yesterday's proof groups the \
       attacker has since lost.";
    expected =
      "Keys are slot-specific, so every replayed pair mismatches the current \
       slot's keys and is rejected (keys_rejected, guess tally); the \
       attacker gains nothing beyond its entitlement.";
    instantiate =
      (fun ~attack_at ~slot_duration:_ ~prng:_ ->
        {
          label = "replay";
          active = (fun ~time -> time >= attack_at);
          on_slot =
            (fun ctx ->
              let honest =
                {
                  Flid.sub_slot = ctx.Flid.actx_slot;
                  sub_pairs = ctx.Flid.actx_entitled;
                }
              in
              let stale =
                List.find_opt
                  (fun (s : Flid.submission) ->
                    s.Flid.sub_pairs <> []
                    && s.Flid.sub_slot <= ctx.Flid.actx_slot - lag_slots)
                  ctx.Flid.actx_history
              in
              Metrics.tick "attack.submissions";
              match stale with
              | None -> [ honest ]
              | Some s ->
                  Metrics.tick "attack.replays";
                  trace ~time:ctx.Flid.actx_time "replay" (fun () ->
                      [
                        ("slot", Json.Int ctx.Flid.actx_slot);
                        ("stale_slot", Json.Int s.Flid.sub_slot);
                        ("pairs", Json.Int (List.length s.Flid.sub_pairs));
                      ]);
                  [
                    honest;
                    {
                      Flid.sub_slot = ctx.Flid.actx_slot;
                      sub_pairs = s.Flid.sub_pairs;
                    };
                  ]);
          on_key_result = no_key_result;
        });
  }

let churn ~period_slots =
  {
    name = "churn";
    kind = Spec.Grace_churn { period_slots };
    paper = "Section 3.2.2 (grace windows and lockout)";
    doc =
      "Join/leave cycling inside SIGMA's session-join grace: join the \
       minimal group keyless, ride the grace window for [period_slots] \
       slots, unsubscribe just before the keyless expiry would lock the \
       interface out, and rejoin immediately.  Runs on the control channel \
       (bare attacker); a legacy edge sees plain IGMP join/leave cycling of \
       every group.";
    expected =
      "The agent charges the same lockout for an early unsubscribe of a \
       still-keyless join grant as for its expiry, so back-to-back grace \
       rides are denied and the attacker averages less than one minimal \
       group.";
    instantiate =
      (fun ~attack_at ~slot_duration:_ ~prng:_ ->
        {
          label = "churn";
          active = (fun ~time -> time >= attack_at);
          (* The cycle acts on the control channel, not on key
             submissions: the bare driver implements it. *)
          on_slot = (fun _ctx -> []);
          on_key_result = no_key_result;
        });
  }

let collude ~colluders =
  {
    name = "collude";
    kind = Spec.Collusion { colluders };
    paper = "Section 4.2 (collusion and interface keys)";
    doc =
      Printf.sprintf
        "%d free-riding hosts replay, slot for slot, the freshest key \
         submission an honest accomplice reconstructed — each trying to \
         open a private copy of the accomplice's whole subscription from \
         its own interface.  Where keys are not enforced the colluders \
         need no accomplice at all and just IGMP-join everything."
        colluders;
    expected =
      "Plain SIGMA honours the replayed keys (aggregate gain = number of \
       colluders); interface-specific keys make a key lifted from another \
       interface fail validation, locking every colluder down to the \
       session-join minimum.";
    instantiate =
      (fun ~attack_at ~slot_duration:_ ~prng:_ ->
        {
          label = "collude";
          active = (fun ~time -> time >= attack_at);
          (* The history of a bare colluder is its accomplice's feed
             ([launch_bare ~feed]); the replayed pairs are valid for
             their slot, just lifted from another interface. *)
          on_slot =
            (fun ctx ->
              match ctx.Flid.actx_history with
              | (s : Flid.submission) :: _ when s.Flid.sub_pairs <> [] ->
                  Metrics.tick "attack.submissions";
                  Metrics.tick "attack.colluder_shares"
                    ~by:(List.length s.Flid.sub_pairs);
                  trace ~time:ctx.Flid.actx_time "collude_replay" (fun () ->
                      [
                        ("slot", Json.Int s.Flid.sub_slot);
                        ("pairs", Json.Int (List.length s.Flid.sub_pairs));
                      ]);
                  [ s ]
              | _ -> []);
          on_key_result = no_key_result;
        });
  }

let of_kind = function
  | Spec.Persistent_inflation -> persistent
  | Spec.Pulse_inflation { period_s; duty } -> pulse ~period_s ~duty
  | Spec.Key_guessing { budget_per_slot } -> guess ~budget_per_slot
  | Spec.Stale_replay { lag_slots } -> replay ~lag_slots
  | Spec.Grace_churn { period_slots } -> churn ~period_slots
  | Spec.Collusion { colluders } -> collude ~colluders

let member inst =
  {
    Flid.adv_label = inst.label;
    adv_active = inst.active;
    adv_submit = inst.on_slot;
  }

(* --- Bare attacker ------------------------------------------------------ *)

let key_matches acked (g, k) =
  List.exists (fun (g', k') -> g' = g && k' = k) acked

let launch_bare ?feed topo ~host ~prng ~groups ~slot_duration ~sigma
    ~attack_at kind =
  let inst = (of_kind kind).instantiate ~attack_at ~slot_duration ~prng in
  let sim = Topology.sim topo in
  let meter = Meter.create () in
  Timeseries.sample_rate ~scale:0.008 "attack.bare.goodput_kbps" (fun () ->
      float_of_int (Meter.total_bytes meter));
  let record pkt =
    Meter.record meter ~time:(Sim.now sim) ~bytes:pkt.Packet.size
  in
  List.iter (fun group -> Node.subscribe_local host ~group record) groups;
  let minimal = List.hd groups in
  let client = if sigma then Some (Client.create topo ~host) else None in
  let joined = ref false in
  let join_all () =
    if not !joined then begin
      joined := true;
      List.iter (fun group -> Multicast.host_join topo ~host ~group) groups
    end
  in
  let leave_all () =
    if !joined then begin
      joined := false;
      List.iter (fun group -> Multicast.host_leave topo ~host ~group) groups
    end
  in
  let history = ref [] in
  let submit client subs =
    List.iter
      (fun (s : Flid.submission) ->
        if s.Flid.sub_pairs <> [] then begin
          Client.subscribe client ~slot:s.Flid.sub_slot ~pairs:s.Flid.sub_pairs;
          history := s :: List.filteri (fun i _ -> i < 15) !history;
          (* Observe the verdicts one slot later through the ack state
             the client accumulated (snooped Sub_acks). *)
          Sim.post_after sim ~delay:slot_duration (fun () ->
                 let acked = Client.acked_pairs client ~slot:s.Flid.sub_slot in
                 List.iter
                   (fun pair ->
                     inst.on_key_result ~slot:s.Flid.sub_slot ~group:(fst pair)
                       ~accepted:(key_matches acked pair))
                   s.Flid.sub_pairs)
        end)
      subs
  in
  (match (kind, client) with
  | Spec.Grace_churn { period_slots }, _ ->
      (* The churn cycle: grab traffic for [hold] seconds, release it
         just before the keyless grant would expire, rejoin at the next
         cycle boundary. *)
      let period = Float.max slot_duration (period_slots *. slot_duration) in
      let hold =
        Float.max (0.5 *. slot_duration) (period -. (0.25 *. slot_duration))
      in
      ignore
        (Sim.every sim ~start:attack_at ~period (fun () ->
             let sp = Prof.span "attack" in
             let time = Sim.now sim in
             (if inst.active ~time then begin
               Metrics.tick "attack.churn_cycles";
               trace ~time "churn_join" (fun () ->
                   [ ("hold_s", Json.Float hold) ]);
               (match client with
               | Some client -> Client.session_join client ~group:minimal
               | None -> join_all ());
               Sim.post_after sim ~delay:hold (fun () ->
                      trace ~time:(Sim.now sim) "churn_leave" (fun () -> []);
                      match client with
                      | Some client ->
                          Client.unsubscribe client ~groups:[ minimal ]
                      | None -> leave_all ())
             end);
             Prof.finish sp))
  | _, None ->
      (* Legacy IGMP edge: claiming a group is joining it. *)
      ignore
        (Sim.every sim ~start:attack_at ~period:slot_duration (fun () ->
             let sp = Prof.span "attack" in
             let time = Sim.now sim in
             (if inst.active ~time then begin
                if not !joined then begin
                  Metrics.tick "attack.submissions";
                  trace ~time "igmp_join_all" (fun () ->
                      [ ("groups", Json.Int (List.length groups)) ])
                end;
                join_all ()
              end
              else leave_all ());
             Prof.finish sp))
  | _, Some client ->
      ignore
        (Sim.every sim ~start:attack_at ~period:slot_duration (fun () ->
             let sp = Prof.span "attack" in
             let time = Sim.now sim in
             (if inst.active ~time then begin
               (* Keep knocking on the session door: ignored while the
                  interface is locked out, otherwise worth a grace
                  window. *)
               Client.session_join client ~group:minimal;
               let ctx =
                 {
                   Flid.actx_time = time;
                   actx_slot = int_of_float (time /. slot_duration) + 1;
                   actx_entitled = [];
                   actx_groups = groups;
                   actx_fresh_key =
                     (fun () -> Key.nonce prng ~width:Key.default_width);
                   actx_history =
                     (match feed with Some f -> f () | None -> !history);
                 }
               in
               submit client (inst.on_slot ctx)
             end);
             Prof.finish sp)));
  meter
