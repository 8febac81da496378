module Spec = Mcc_core.Spec
module Experiments = Mcc_core.Experiments
module Runner = Mcc_core.Runner
module Sink = Mcc_core.Sink
module Scenario = Mcc_core.Scenario
module Defaults = Mcc_core.Defaults
module Dumbbell = Mcc_core.Dumbbell
module Flid = Mcc_mcast.Flid
module Router_agent = Mcc_sigma.Router_agent
module Tcp = Mcc_transport.Tcp
module Meter = Mcc_util.Meter
module Prng = Mcc_util.Prng

(* --- Damage metrics ----------------------------------------------------- *)

let fair_share_kbps = Defaults.fair_share_bps /. 1000.

(* Slide 5-second windows over the attack period; the adversary counts
   as contained once every later window stays within the limit: twice
   the larger of a fair share and what the honest victim receiver got
   in the same window.  (The victim-relative term keeps the limit above
   the legitimate per-member session rate, which floats with the
   competition; the fair-share floor keeps a starved victim from
   excusing the attacker.)  [Some 0.] = never exceeded; [None] = still
   exceeding at the horizon. *)
let containment ~attack_at ~duration ~victim sample =
  let window = 5. and step = 1. in
  let rec scan t last =
    if t +. window > duration +. 1e-9 then last
    else
      let hi = t +. window in
      let limit = 2. *. Float.max fair_share_kbps (victim ~lo:t ~hi) in
      let last = if sample ~lo:t ~hi > limit then Some hi else last in
      scan (t +. step) last
  in
  match scan attack_at None with
  | None -> Some 0.
  | Some t_end when t_end +. step +. window > duration +. 1e-9 -> None
  | Some t_end -> Some (t_end -. attack_at)

(* --- Cell construction -------------------------------------------------- *)

(* Every cell shares one shape: a 1 Mbps dumbbell carrying the attacked
   session (A), an honest victim session (B) of the same protocol whose
   receiver is the honest-goodput probe, and one TCP Reno flow.  The
   defence's deployment ([Spec.deployment]) picks the machinery around
   them; its SIGMA edge enforces interface-specific keys.

   The protocol's adversary context ([P.history], FLID only) picks the
   adversary.  With a context, member attacks run as a session-A
   member, and collusion as free-riding hosts replaying an honest
   member's keys.  Grace churn (which acts on the control channel) and
   every attack on a protocol without a context get one standalone
   bare attacker. *)

let run_cell (p : Spec.adversary_params) : Experiments.adversary_result =
  let ({ seed; duration; attack_at; attack; protocol; defence }
        : Spec.adversary_params) =
    p
  in
  let module P = (val Spec.impl protocol) in
  let d = Spec.deployment defence in
  let agent_config =
    { Router_agent.default_config with Router_agent.interface_keys = true }
  in
  let t =
    Scenario.create ~seed ~ecn:d.Spec.ecn ~sigma:d.Spec.sigma ~agent_config
      ~bottleneck_rate_bps:1_000_000. ()
  in
  let add receivers =
    Scenario.add_session (module P) ?receiver_mode:d.Spec.receiver_mode t
      ~mode:d.Spec.sender_mode ~receivers ()
  in
  (* The attacker's own randomness (guessed keys), shared by every
     colluder; decoupled from the scenario seed stream so adding a
     strategy never perturbs the honest sessions. *)
  let attacker_prng = Prng.create ((seed * 7919) + 13) in
  let launch_bare ?feed config =
    let db = Scenario.dumbbell t in
    let host = Dumbbell.add_receiver db in
    Strategy.launch_bare ?feed db.Dumbbell.topo ~host ~prng:attacker_prng
      ~groups:(List.init Defaults.groups (fun g -> P.group_addr config (g + 1)))
      ~slot_duration:(P.slot_duration config) ~sigma:d.Spec.sigma ~attack_at
      attack
  in
  (* Session A plus its adversary; returns the attacker-side meters. *)
  let attacker_meters =
    match (P.history, attack) with
    | ( Some _,
        ( Spec.Persistent_inflation | Spec.Pulse_inflation _
        | Spec.Key_guessing _ | Spec.Stale_replay _ ) ) ->
        let inst =
          (Strategy.of_kind attack).Strategy.instantiate ~attack_at
            ~slot_duration:(P.default_slot d.Spec.sender_mode)
            ~prng:attacker_prng
        in
        let behavior = Flid.Adversarial (Strategy.member inst) in
        let _, _, receivers = add [ Scenario.receiver ~behavior () ] in
        [ P.receiver_meter (List.hd receivers) ]
    | Some history, Spec.Collusion { colluders } ->
        (* One honest session member is the accomplice; the colluders
           are free-riding hosts replaying its key submissions from
           their own interfaces (just IGMP joiners where the edge does
           not enforce keys). *)
        let config, _, receivers = add [ Scenario.receiver () ] in
        let accomplice = List.hd receivers in
        List.init colluders (fun _ ->
            launch_bare ~feed:(fun () -> history accomplice) config)
    | None, _ | Some _, Spec.Grace_churn _ ->
        let config, _, _ = add [ Scenario.receiver () ] in
        [ launch_bare config ]
  in
  (* Session B: the honest victim whose goodput measures the damage. *)
  let victim_meter =
    let _, _, receivers = add [ Scenario.receiver () ] in
    P.receiver_meter (List.hd receivers)
  in
  let tcp = Scenario.add_tcp t in
  Scenario.run t ~seconds:duration;
  let sample ~lo ~hi =
    List.fold_left
      (fun acc m -> acc +. Meter.mean_kbps m ~lo ~hi)
      0. attacker_meters
  in
  let settle = Float.min 10. (0.1 *. (duration -. attack_at)) in
  let honest_before =
    Meter.mean_kbps victim_meter ~lo:(attack_at /. 2.) ~hi:attack_at
  in
  let honest_after =
    Meter.mean_kbps victim_meter ~lo:(attack_at +. settle) ~hi:duration
  in
  let attacker_kbps = sample ~lo:(attack_at +. settle) ~hi:duration in
  let keys_rejected, lockouts, grace_admissions =
    match Scenario.agent t with
    | Some agent ->
        let s = Router_agent.stats agent in
        ( s.Router_agent.keys_rejected,
          s.Router_agent.lockouts,
          s.Router_agent.grace_admissions )
    | None -> (0, 0, 0)
  in
  {
    Experiments.honest_before_kbps = honest_before;
    honest_after_kbps = honest_after;
    honest_loss_pct =
      (if honest_before <= 0. then 0.
       else Float.max 0. (100. *. (1. -. (honest_after /. honest_before))));
    attacker_kbps;
    attacker_gain = attacker_kbps /. fair_share_kbps;
    containment_s =
      containment ~attack_at ~duration
        ~victim:(fun ~lo ~hi -> Meter.mean_kbps victim_meter ~lo ~hi)
        sample;
    tcp_kbps =
      Meter.mean_kbps (Tcp.delivered_meter tcp) ~lo:(attack_at +. settle)
        ~hi:duration;
    keys_rejected;
    lockouts;
    grace_admissions;
  }

(* Register as the Spec.Adversary implementation: linking this module
   makes adversary specs runnable through the ordinary Experiments/
   Runner machinery. *)
let () = Experiments.set_adversary_impl run_cell

(* --- The matrix --------------------------------------------------------- *)

(* Written out rather than derived from the strategies: a list built at
   module initialisation allocates there, and that shifts the GC's
   pacing enough to move peak heap words by 1-3% on registry entries
   that run no attack code. *)
let default_attacks =
  [
    Spec.Persistent_inflation;
    Spec.Pulse_inflation { period_s = 10.; duty = 0.5 };
    Spec.Key_guessing { budget_per_slot = 4 };
    Spec.Stale_replay { lag_slots = 4 };
    Spec.Grace_churn { period_slots = 2.5 };
    Spec.Collusion { colluders = 3 };
  ]

let entries ?(seed = Spec.default_adversary.Spec.seed)
    ?(duration = Spec.default_adversary.Spec.duration)
    ?(attack_at = Spec.default_adversary.Spec.attack_at)
    ?(attacks = default_attacks) ?(protocols = Spec.protocols)
    ?(defences = Spec.defences) () =
  List.concat_map
    (fun attack ->
      List.concat_map
        (fun protocol ->
          List.map
            (fun defence ->
              let p =
                { Spec.seed; duration; attack_at; attack; protocol; defence }
              in
              {
                Runner.name =
                  Printf.sprintf "matrix-%s-%s-%s" (Spec.attack_str attack)
                    (Spec.protocol_str protocol)
                    (Spec.defence_str defence);
                group = "matrix";
                doc =
                  Printf.sprintf "%s attack vs %s under %s"
                    (Spec.attack_str attack)
                    (Spec.protocol_str protocol)
                    (Spec.defence_str defence);
                spec = Spec.Adversary p;
              })
            defences)
        protocols)
    attacks

let run ?jobs ?sched ?sample_dt ?(sinks = []) ?on_progress ?progress_interval
    cells =
  (* Matrix output doubles as a regression artefact (ci.sh compares job
     counts — and scheduler backends — byte for byte), so drop the
     profile: its wall-clock fields are nondeterministic and its sched
     field names the backend. *)
  let sinks =
    List.map (Sink.map (fun r -> { r with Sink.profile = None })) sinks
  in
  Runner.run_batch ?jobs ?sched ?sample_dt ~sinks ?on_progress
    ?progress_interval cells
