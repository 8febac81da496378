module Flid = Mcc_mcast.Flid

type mode = Flid.mode

type attack_params = {
  seed : int;
  duration : float;
  attack_at : float;
  mode : mode;
}

type sweep_params = {
  seed : int;
  duration : float;
  sessions : int;
  cross_traffic : bool;
  mode : mode;
}

type responsiveness_params = {
  seed : int;
  duration : float;
  burst_start : float;
  burst_stop : float;
  burst_rate_bps : float;
  mode : mode;
}

type rtt_params = {
  seed : int;
  duration : float;
  receivers : int;
  mode : mode;
}

type convergence_params = {
  seed : int;
  duration : float;
  join_times : float list;
  mode : mode;
}

type overhead_axis = Groups | Slot

type overhead_params = {
  seed : int;
  duration : float;
  groups : int;
  slot : float;
  axis : overhead_axis;
}

type partial_params = {
  seed : int;
  duration : float;
  attack_at : float;
}

type attack_kind =
  | Persistent_inflation
  | Pulse_inflation of { period_s : float; duty : float }
  | Key_guessing of { budget_per_slot : int }
  | Stale_replay of { lag_slots : int }
  | Grace_churn of { period_slots : float }
  | Collusion of { colluders : int }

type protocol = Flid_ds | Rlm_threshold | Replicated | Oversub

type defence = Undefended | Delta_only | Delta_sigma | Delta_sigma_ecn

type adversary_params = {
  seed : int;
  duration : float;
  attack_at : float;
  attack : attack_kind;
  protocol : protocol;
  defence : defence;
}

type topology_spec =
  | Dumbbell_topo
  | Fat_tree of { k : int; core_rate_bps : float }
  | Star_lans of { lans : int; hosts_per_lan : int; core_rate_bps : float }
  | Isp_random of {
      routers : int;
      extra_links : int;
      hosts_per_edge : int;
      core_rate_bps : float;
    }

type churn_spec =
  | No_churn
  | Flash_crowd of { at : float; arrivals : int; leave_after : float }
  | Diurnal of { period : float; fraction : float }
  | Regional_outage of { at : float; restore_at : float; fraction : float }

type traffic_spec =
  | Web_mix of { flows : int; rate_bps : float; mean_on : float; mean_off : float }
  | Tcp_flows of { flows : int }

type workload_params = {
  seed : int;
  duration : float;
  topology : topology_spec;
  protocol : protocol;
  defence : defence;
  receivers : int;
  churn : churn_spec;
  traffic : traffic_spec list;
  attack : attack_kind option;
  attack_at : float;
}

type study =
  | Protocol_mix
  | Key_passing of { interface_keys : bool }
  | Ecn_signal of { ecn : bool }
  | Oversub_receivers
  | Fec_scheme of { scheme : Mcc_sigma.Fec.scheme }
  | Upgrade_grace of { grace_slots : float }
  | Slot_length of { slot : float; burst_start : float; burst_stop : float }
  | Key_material of { shamir : bool }

type study_params = {
  seed : int;
  duration : float;
  warmup : float;
  study : study;
}

type t =
  | Attack of attack_params
  | Sweep of sweep_params
  | Responsiveness of responsiveness_params
  | Rtt of rtt_params
  | Convergence of convergence_params
  | Overhead of overhead_params
  | Partial of partial_params
  | Adversary of adversary_params
  | Workload of workload_params
  | Study of study_params

(* The defaults are the paper's Section 5.1 settings; seeds match the
   fixed seeds the pre-spec API used, so regenerated figures are
   bit-compatible with EXPERIMENTS.md. *)

let default_attack =
  { seed = 7; duration = 200.; attack_at = 100.; mode = Flid.Robust }

let default_sweep =
  { seed = 12; duration = 200.; sessions = 1; cross_traffic = false;
    mode = Flid.Robust }

let default_responsiveness =
  { seed = 19; duration = 100.; burst_start = 45.; burst_stop = 75.;
    burst_rate_bps = 800_000.; mode = Flid.Robust }

let default_rtt = { seed = 23; duration = 200.; receivers = 20; mode = Flid.Robust }

let default_convergence =
  { seed = 29; duration = 40.; join_times = [ 0.; 10.; 20.; 30. ];
    mode = Flid.Robust }

let default_overhead =
  { seed = 31; duration = 30.; groups = 10; slot = 0.25; axis = Groups }

let default_partial = { seed = 37; duration = 120.; attack_at = 40. }

let default_adversary =
  { seed = 41; duration = 120.; attack_at = 30.;
    attack = Persistent_inflation; protocol = Flid_ds; defence = Delta_sigma }

let default_workload =
  { seed = 43; duration = 120.;
    topology = Fat_tree { k = 4; core_rate_bps = 2_000_000. };
    protocol = Flid_ds; defence = Delta_sigma; receivers = 6;
    churn = No_churn; traffic = []; attack = None; attack_at = 40. }

let attack_str = function
  | Persistent_inflation -> "inflate"
  | Pulse_inflation _ -> "pulse"
  | Key_guessing _ -> "guess"
  | Stale_replay _ -> "replay"
  | Grace_churn _ -> "churn"
  | Collusion _ -> "collude"

(* The protocol registry: every scheme the matrix can run, in matrix
   column order, and the one match that maps a protocol to its module.
   Names, headings, matrix columns and CLI parsing all derive from
   these two. *)
let protocols = [ Flid_ds; Rlm_threshold; Replicated; Oversub ]

let impl : protocol -> (module Protocol.S) = function
  | Flid_ds -> (module Protocol.Flid)
  | Rlm_threshold -> (module Protocol.Rlm)
  | Replicated -> (module Protocol.Replicated)
  | Oversub -> (module Protocol.Oversub)

let protocol_str p =
  let module P = (val impl p) in
  P.name

let protocol_heading p =
  let module P = (val impl p) in
  P.heading

(* The defence registry, in matrix column order, and the one match that
   says what each defence deploys.  The matrix, the workload builder, the
   scorecard, the schema and the CLI all read these two. *)
let defences = [ Undefended; Delta_only; Delta_sigma; Delta_sigma_ecn ]

type deployment = {
  sigma : bool;
  sender_mode : mode;
  receiver_mode : mode option;
  ecn : bool;
}

let deployment = function
  | Undefended ->
      { sigma = false; sender_mode = Flid.Plain; receiver_mode = None;
        ecn = false }
  | Delta_only ->
      { sigma = false; sender_mode = Flid.Robust;
        receiver_mode = Some Flid.Plain; ecn = false }
  | Delta_sigma ->
      { sigma = true; sender_mode = Flid.Robust; receiver_mode = None;
        ecn = false }
  | Delta_sigma_ecn ->
      { sigma = true; sender_mode = Flid.Robust; receiver_mode = None;
        ecn = true }

let defence_str = function
  | Undefended -> "plain"
  | Delta_only -> "delta"
  | Delta_sigma -> "delta+sigma"
  | Delta_sigma_ecn -> "delta+sigma+ecn"

let topology_str = function
  | Dumbbell_topo -> "dumbbell"
  | Fat_tree _ -> "fat_tree"
  | Star_lans _ -> "star_lans"
  | Isp_random _ -> "isp_random"

let churn_str = function
  | No_churn -> "none"
  | Flash_crowd _ -> "flash_crowd"
  | Diurnal _ -> "diurnal"
  | Regional_outage _ -> "regional_outage"

let traffic_str = function Web_mix _ -> "web" | Tcp_flows _ -> "tcp"

let study_str = function
  | Protocol_mix -> "protocols"
  | Key_passing _ -> "collusion"
  | Ecn_signal _ -> "ecn"
  | Oversub_receivers -> "oversub"
  | Fec_scheme _ -> "fec"
  | Upgrade_grace _ -> "grace"
  | Slot_length _ -> "slot"
  | Key_material _ -> "threshold"

let kind = function
  | Attack _ -> "attack"
  | Sweep _ -> "sweep"
  | Responsiveness _ -> "responsiveness"
  | Rtt _ -> "rtt"
  | Convergence _ -> "convergence"
  | Overhead _ -> "overhead"
  | Partial _ -> "partial"
  | Adversary _ -> "adversary"
  | Workload _ -> "workload"
  | Study _ -> "study"

let seed = function
  | Attack p -> p.seed
  | Sweep p -> p.seed
  | Responsiveness p -> p.seed
  | Rtt p -> p.seed
  | Convergence p -> p.seed
  | Overhead p -> p.seed
  | Partial p -> p.seed
  | Adversary p -> p.seed
  | Workload p -> p.seed
  | Study p -> p.seed

let duration = function
  | Attack p -> p.duration
  | Sweep p -> p.duration
  | Responsiveness p -> p.duration
  | Rtt p -> p.duration
  | Convergence p -> p.duration
  | Overhead p -> p.duration
  | Partial p -> p.duration
  | Adversary p -> p.duration
  | Workload p -> p.duration
  | Study p -> p.duration

let scale_time t ~factor =
  match t with
  | Attack p ->
      Attack
        { p with duration = p.duration *. factor;
          attack_at = p.attack_at *. factor }
  | Sweep p -> Sweep { p with duration = p.duration *. factor }
  | Responsiveness p ->
      Responsiveness
        { p with duration = p.duration *. factor;
          burst_start = p.burst_start *. factor;
          burst_stop = p.burst_stop *. factor }
  | Rtt p -> Rtt { p with duration = p.duration *. factor }
  | Convergence p ->
      Convergence
        { p with duration = p.duration *. factor;
          join_times = List.map (fun j -> j *. factor) p.join_times }
  | Overhead p -> Overhead { p with duration = p.duration *. factor }
  | Partial p ->
      Partial
        { p with duration = p.duration *. factor;
          attack_at = p.attack_at *. factor }
  | Adversary p ->
      (* Attack-internal timing (pulse period, churn cadence) tracks the
         protocol's slot/RED clocks, not the horizon, so it stays put. *)
      Adversary
        { p with duration = p.duration *. factor;
          attack_at = p.attack_at *. factor }
  | Workload p ->
      (* Churn instants live on the horizon and scale with it; traffic
         on/off periods track flow dynamics and stay put. *)
      let churn =
        match p.churn with
        | No_churn -> No_churn
        | Flash_crowd c ->
            Flash_crowd
              { c with at = c.at *. factor;
                leave_after = c.leave_after *. factor }
        | Diurnal c -> Diurnal { c with period = c.period *. factor }
        | Regional_outage c ->
            Regional_outage
              { c with at = c.at *. factor;
                restore_at = c.restore_at *. factor }
      in
      Workload
        { p with duration = p.duration *. factor;
          attack_at = p.attack_at *. factor; churn }
  | Study p ->
      let study =
        match p.study with
        | Slot_length s ->
            Slot_length
              { s with burst_start = s.burst_start *. factor;
                burst_stop = s.burst_stop *. factor }
        | study -> study
      in
      Study
        { p with duration = p.duration *. factor;
          warmup = p.warmup *. factor; study }

let mode_str = function Flid.Plain -> "plain" | Flid.Robust -> "robust"

let fec_str = function
  | Mcc_sigma.Fec.Repetition n -> Printf.sprintf "repetition-%d" n
  | Mcc_sigma.Fec.Xor_parity -> "xor-parity"

let study_fields (p : study_params) =
  [
    ("seed", Json.Int p.seed);
    ("duration", Json.Float p.duration);
    ("warmup", Json.Float p.warmup);
    ("study", Json.String (study_str p.study));
  ]
  @
  match p.study with
  | Protocol_mix | Oversub_receivers -> []
  | Key_passing { interface_keys } ->
      [ ("interface_keys", Json.Bool interface_keys) ]
  | Ecn_signal { ecn } -> [ ("ecn", Json.Bool ecn) ]
  | Fec_scheme { scheme } -> [ ("fec", Json.String (fec_str scheme)) ]
  | Upgrade_grace { grace_slots } -> [ ("grace_slots", Json.Float grace_slots) ]
  | Slot_length { slot; burst_start; burst_stop } ->
      [
        ("slot", Json.Float slot);
        ("burst_start", Json.Float burst_start);
        ("burst_stop", Json.Float burst_stop);
      ]
  | Key_material { shamir } ->
      [ ("keys", Json.String (if shamir then "shamir" else "xor")) ]

let to_json t =
  let base = [ ("kind", Json.String (kind t)) ] in
  let fields =
    match t with
    | Attack p ->
        [
          ("seed", Json.Int p.seed);
          ("duration", Json.Float p.duration);
          ("attack_at", Json.Float p.attack_at);
          ("mode", Json.String (mode_str p.mode));
        ]
    | Sweep p ->
        [
          ("seed", Json.Int p.seed);
          ("duration", Json.Float p.duration);
          ("sessions", Json.Int p.sessions);
          ("cross_traffic", Json.Bool p.cross_traffic);
          ("mode", Json.String (mode_str p.mode));
        ]
    | Responsiveness p ->
        [
          ("seed", Json.Int p.seed);
          ("duration", Json.Float p.duration);
          ("burst_start", Json.Float p.burst_start);
          ("burst_stop", Json.Float p.burst_stop);
          ("burst_rate_bps", Json.Float p.burst_rate_bps);
          ("mode", Json.String (mode_str p.mode));
        ]
    | Rtt p ->
        [
          ("seed", Json.Int p.seed);
          ("duration", Json.Float p.duration);
          ("receivers", Json.Int p.receivers);
          ("mode", Json.String (mode_str p.mode));
        ]
    | Convergence p ->
        [
          ("seed", Json.Int p.seed);
          ("duration", Json.Float p.duration);
          ("join_times", Json.List (List.map (fun j -> Json.Float j) p.join_times));
          ("mode", Json.String (mode_str p.mode));
        ]
    | Overhead p ->
        [
          ("seed", Json.Int p.seed);
          ("duration", Json.Float p.duration);
          ("groups", Json.Int p.groups);
          ("slot", Json.Float p.slot);
          ( "axis",
            Json.String (match p.axis with Groups -> "groups" | Slot -> "slot")
          );
        ]
    | Partial p ->
        [
          ("seed", Json.Int p.seed);
          ("duration", Json.Float p.duration);
          ("attack_at", Json.Float p.attack_at);
        ]
    | Adversary p ->
        let attack_fields =
          match p.attack with
          | Persistent_inflation -> []
          | Pulse_inflation { period_s; duty } ->
              [ ("period_s", Json.Float period_s); ("duty", Json.Float duty) ]
          | Key_guessing { budget_per_slot } ->
              [ ("budget_per_slot", Json.Int budget_per_slot) ]
          | Stale_replay { lag_slots } -> [ ("lag_slots", Json.Int lag_slots) ]
          | Grace_churn { period_slots } ->
              [ ("period_slots", Json.Float period_slots) ]
          | Collusion { colluders } -> [ ("colluders", Json.Int colluders) ]
        in
        [
          ("seed", Json.Int p.seed);
          ("duration", Json.Float p.duration);
          ("attack_at", Json.Float p.attack_at);
          ("attack", Json.String (attack_str p.attack));
          ("protocol", Json.String (protocol_str p.protocol));
          ("defence", Json.String (defence_str p.defence));
        ]
        @ attack_fields
    | Workload p ->
        let topology =
          let base = [ ("kind", Json.String (topology_str p.topology)) ] in
          match p.topology with
          | Dumbbell_topo -> Json.Obj base
          | Fat_tree { k; core_rate_bps } ->
              Json.Obj
                (base
                @ [ ("k", Json.Int k);
                    ("core_rate_bps", Json.Float core_rate_bps) ])
          | Star_lans { lans; hosts_per_lan; core_rate_bps } ->
              Json.Obj
                (base
                @ [ ("lans", Json.Int lans);
                    ("hosts_per_lan", Json.Int hosts_per_lan);
                    ("core_rate_bps", Json.Float core_rate_bps) ])
          | Isp_random { routers; extra_links; hosts_per_edge; core_rate_bps }
            ->
              Json.Obj
                (base
                @ [ ("routers", Json.Int routers);
                    ("extra_links", Json.Int extra_links);
                    ("hosts_per_edge", Json.Int hosts_per_edge);
                    ("core_rate_bps", Json.Float core_rate_bps) ])
        in
        let churn =
          let base = [ ("kind", Json.String (churn_str p.churn)) ] in
          match p.churn with
          | No_churn -> Json.Obj base
          | Flash_crowd { at; arrivals; leave_after } ->
              Json.Obj
                (base
                @ [ ("at", Json.Float at);
                    ("arrivals", Json.Int arrivals);
                    ("leave_after", Json.Float leave_after) ])
          | Diurnal { period; fraction } ->
              Json.Obj
                (base
                @ [ ("period", Json.Float period);
                    ("fraction", Json.Float fraction) ])
          | Regional_outage { at; restore_at; fraction } ->
              Json.Obj
                (base
                @ [ ("at", Json.Float at);
                    ("restore_at", Json.Float restore_at);
                    ("fraction", Json.Float fraction) ])
        in
        let traffic =
          Json.List
            (List.map
               (fun t ->
                 let base = [ ("kind", Json.String (traffic_str t)) ] in
                 match t with
                 | Web_mix { flows; rate_bps; mean_on; mean_off } ->
                     Json.Obj
                       (base
                       @ [ ("flows", Json.Int flows);
                           ("rate_bps", Json.Float rate_bps);
                           ("mean_on", Json.Float mean_on);
                           ("mean_off", Json.Float mean_off) ])
                 | Tcp_flows { flows } ->
                     Json.Obj (base @ [ ("flows", Json.Int flows) ]))
               p.traffic)
        in
        [
          ("seed", Json.Int p.seed);
          ("duration", Json.Float p.duration);
          ("topology", topology);
          ("protocol", Json.String (protocol_str p.protocol));
          ("defence", Json.String (defence_str p.defence));
          ("receivers", Json.Int p.receivers);
          ("churn", churn);
          ("traffic", traffic);
        ]
        @ (match p.attack with
          | None -> []
          | Some a ->
              [
                ("attack", Json.String (attack_str a));
                ("attack_at", Json.Float p.attack_at);
              ])
    | Study p -> study_fields p
  in
  Json.Obj (base @ fields)

let pp fmt t =
  match t with
  | Attack p ->
      Format.fprintf fmt "attack seed=%d duration=%gs attack_at=%gs mode=%s"
        p.seed p.duration p.attack_at (mode_str p.mode)
  | Sweep p ->
      Format.fprintf fmt "sweep seed=%d duration=%gs sessions=%d cross=%b mode=%s"
        p.seed p.duration p.sessions p.cross_traffic (mode_str p.mode)
  | Responsiveness p ->
      Format.fprintf fmt
        "responsiveness seed=%d duration=%gs burst=[%g,%g]s @@%gbps mode=%s"
        p.seed p.duration p.burst_start p.burst_stop p.burst_rate_bps
        (mode_str p.mode)
  | Rtt p ->
      Format.fprintf fmt "rtt seed=%d duration=%gs receivers=%d mode=%s" p.seed
        p.duration p.receivers (mode_str p.mode)
  | Convergence p ->
      Format.fprintf fmt "convergence seed=%d duration=%gs joins=[%s] mode=%s"
        p.seed p.duration
        (String.concat ";" (List.map (Printf.sprintf "%g") p.join_times))
        (mode_str p.mode)
  | Overhead p ->
      Format.fprintf fmt "overhead seed=%d duration=%gs groups=%d slot=%gs by=%s"
        p.seed p.duration p.groups p.slot
        (match p.axis with Groups -> "groups" | Slot -> "slot")
  | Partial p ->
      Format.fprintf fmt "partial seed=%d duration=%gs attack_at=%gs" p.seed
        p.duration p.attack_at
  | Adversary p ->
      Format.fprintf fmt
        "adversary seed=%d duration=%gs attack_at=%gs attack=%s protocol=%s \
         defence=%s"
        p.seed p.duration p.attack_at (attack_str p.attack)
        (protocol_str p.protocol) (defence_str p.defence)
  | Workload p ->
      Format.fprintf fmt
        "workload seed=%d duration=%gs topology=%s protocol=%s defence=%s \
         receivers=%d churn=%s traffic=[%s]%s"
        p.seed p.duration (topology_str p.topology) (protocol_str p.protocol)
        (defence_str p.defence) p.receivers (churn_str p.churn)
        (String.concat ";" (List.map traffic_str p.traffic))
        (match p.attack with
        | None -> ""
        | Some a ->
            Printf.sprintf " attack=%s@%gs" (attack_str a) p.attack_at)
  | Study p ->
      Format.pp_print_string fmt "study";
      List.iter
        (fun (k, v) ->
          Format.fprintf fmt " %s=%s" k
            (match v with Json.String s -> s | v -> Json.to_string v))
        (study_fields p)
