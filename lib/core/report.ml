let series fmt ~label points =
  Format.fprintf fmt "# %s@." label;
  List.iter (fun (x, y) -> Format.fprintf fmt "%.2f %.1f@." x y) points;
  Format.fprintf fmt "@."

let row fmt label pairs =
  Format.fprintf fmt "%-28s" label;
  List.iter (fun (name, v) -> Format.fprintf fmt " %s=%.1f" name v) pairs;
  Format.fprintf fmt "@."

let heading fmt title =
  Format.fprintf fmt "@.=== %s ===@." title

(* --- human-readable printers ------------------------------------------- *)

let attack fmt (r : Experiments.attack_result) =
  row fmt "F1 (misbehaving)"
    [ ("before", r.Experiments.f1_before); ("after", r.Experiments.f1_after) ];
  row fmt "F2" [ ("after", r.Experiments.f2_after) ];
  row fmt "T1" [ ("after", r.Experiments.t1_after) ];
  row fmt "T2" [ ("after", r.Experiments.t2_after) ];
  series fmt ~label:"F1 Kbps" r.Experiments.f1;
  series fmt ~label:"F2 Kbps" r.Experiments.f2;
  series fmt ~label:"T1 Kbps" r.Experiments.t1;
  series fmt ~label:"T2 Kbps" r.Experiments.t2

let sweep fmt (p : Experiments.sweep_point) =
  Format.fprintf fmt "# sessions individual... | average@.";
  Format.fprintf fmt "%2d " p.Experiments.sessions;
  List.iter
    (fun v -> Format.fprintf fmt "%.0f " v)
    p.Experiments.individual_kbps;
  Format.fprintf fmt "| avg %.1f@.@." p.Experiments.average_kbps

let responsiveness fmt (r : Experiments.responsiveness_result) =
  row fmt "multicast Kbps"
    [
      ("before", r.Experiments.before_kbps);
      ("during-burst", r.Experiments.during_kbps);
      ("after", r.Experiments.after_kbps);
    ];
  series fmt ~label:"multicast Kbps" r.Experiments.multicast

let rtt fmt rows =
  Format.fprintf fmt "# rtt_ms kbps@.";
  List.iter (fun (x, y) -> Format.fprintf fmt "%.0f %.1f@." x y) rows;
  Format.fprintf fmt "@."

let convergence fmt receivers =
  List.iteri
    (fun i s -> series fmt ~label:(Printf.sprintf "receiver %d Kbps" (i + 1)) s)
    receivers

let overhead fmt (p : Experiments.overhead_point) =
  Format.fprintf fmt
    "# x delta%%(analytic) sigma%%(analytic) delta%%(measured) \
     sigma%%(measured)@.";
  Format.fprintf fmt "%5.2f  %.3f %.3f  %.3f %.3f@.@." p.Experiments.x
    p.Experiments.delta_analytic p.Experiments.sigma_analytic
    p.Experiments.delta_measured p.Experiments.sigma_measured

let partial fmt (r : Experiments.partial_result) =
  row fmt "attacker behind SIGMA edge"
    [ ("kbps", r.Experiments.protected_attacker_kbps) ];
  row fmt "attacker behind legacy edge"
    [ ("kbps", r.Experiments.unprotected_attacker_kbps) ];
  row fmt "honest receiver" [ ("kbps", r.Experiments.honest_kbps) ]

let adversary fmt (r : Experiments.adversary_result) =
  row fmt "honest receiver"
    [
      ("before", r.Experiments.honest_before_kbps);
      ("during-attack", r.Experiments.honest_after_kbps);
      ("loss%", r.Experiments.honest_loss_pct);
    ];
  row fmt "adversary"
    [
      ("kbps", r.Experiments.attacker_kbps);
      ("gain-x-fair", r.Experiments.attacker_gain);
    ];
  row fmt "tcp" [ ("kbps", r.Experiments.tcp_kbps) ];
  row fmt "edge router"
    [
      ("keys_rejected", float_of_int r.Experiments.keys_rejected);
      ("lockouts", float_of_int r.Experiments.lockouts);
      ("grace_admissions", float_of_int r.Experiments.grace_admissions);
    ];
  (match r.Experiments.containment_s with
  | Some s -> Format.fprintf fmt "contained %.1fs after attack start@." s
  | None -> Format.fprintf fmt "never contained within the horizon@.")

let workload fmt (r : Experiments.workload_result) =
  row fmt "topology"
    [
      ("nodes", float_of_int r.Experiments.w_nodes);
      ("links", float_of_int r.Experiments.w_links);
    ];
  row fmt "receivers"
    [
      ("count", float_of_int r.Experiments.w_receivers);
      ("mean_kbps", r.Experiments.w_mean_goodput_kbps);
      ("min_kbps", r.Experiments.w_min_goodput_kbps);
      ("max_kbps", r.Experiments.w_max_goodput_kbps);
    ];
  row fmt "background"
    [
      ("cross_kbps", r.Experiments.w_cross_kbps);
      ("attacker_kbps", r.Experiments.w_attacker_kbps);
    ];
  row fmt "network"
    [
      ("drops", float_of_int r.Experiments.w_drops);
      ("marks", float_of_int r.Experiments.w_marks);
    ];
  row fmt "edge router"
    [
      ("keys_rejected", float_of_int r.Experiments.w_keys_rejected);
      ("lockouts", float_of_int r.Experiments.w_lockouts);
    ]

let study fmt values =
  List.iter (fun (name, v) -> Format.fprintf fmt "%-28s %g@." name v) values

let result fmt = function
  | Experiments.Attack r -> attack fmt r
  | Experiments.Sweep_point p -> sweep fmt p
  | Experiments.Responsiveness r -> responsiveness fmt r
  | Experiments.Rtt rows -> rtt fmt rows
  | Experiments.Convergence receivers -> convergence fmt receivers
  | Experiments.Overhead p -> overhead fmt p
  | Experiments.Partial r -> partial fmt r
  | Experiments.Adversary r -> adversary fmt r
  | Experiments.Workload r -> workload fmt r
  | Experiments.Study values -> study fmt values

(* --- machine-readable twins -------------------------------------------- *)

let attack_json (r : Experiments.attack_result) =
  Json.Obj
    [
      ("f1_before", Json.Float r.Experiments.f1_before);
      ("f1_after", Json.Float r.Experiments.f1_after);
      ("f2_after", Json.Float r.Experiments.f2_after);
      ("t1_after", Json.Float r.Experiments.t1_after);
      ("t2_after", Json.Float r.Experiments.t2_after);
      ("f1", Json.of_series r.Experiments.f1);
      ("f2", Json.of_series r.Experiments.f2);
      ("t1", Json.of_series r.Experiments.t1);
      ("t2", Json.of_series r.Experiments.t2);
    ]

let sweep_point_json (p : Experiments.sweep_point) =
  Json.Obj
    [
      ("sessions", Json.Int p.Experiments.sessions);
      ( "individual_kbps",
        Json.List
          (List.map (fun v -> Json.Float v) p.Experiments.individual_kbps) );
      ("average_kbps", Json.Float p.Experiments.average_kbps);
    ]

let responsiveness_json (r : Experiments.responsiveness_result) =
  Json.Obj
    [
      ("burst_start", Json.Float r.Experiments.burst_start);
      ("burst_stop", Json.Float r.Experiments.burst_stop);
      ("before_kbps", Json.Float r.Experiments.before_kbps);
      ("during_kbps", Json.Float r.Experiments.during_kbps);
      ("after_kbps", Json.Float r.Experiments.after_kbps);
      ("multicast", Json.of_series r.Experiments.multicast);
    ]

let rtt_json rows =
  Json.Obj [ ("rows", Json.of_series rows) ]

let convergence_json receivers =
  Json.Obj
    [ ("receivers", Json.List (List.map Json.of_series receivers)) ]

let overhead_json (p : Experiments.overhead_point) =
  Json.Obj
    [
      ("x", Json.Float p.Experiments.x);
      ("delta_analytic", Json.Float p.Experiments.delta_analytic);
      ("sigma_analytic", Json.Float p.Experiments.sigma_analytic);
      ("delta_measured", Json.Float p.Experiments.delta_measured);
      ("sigma_measured", Json.Float p.Experiments.sigma_measured);
    ]

let partial_json (r : Experiments.partial_result) =
  Json.Obj
    [
      ("protected_attacker_kbps", Json.Float r.Experiments.protected_attacker_kbps);
      ( "unprotected_attacker_kbps",
        Json.Float r.Experiments.unprotected_attacker_kbps );
      ("honest_kbps", Json.Float r.Experiments.honest_kbps);
    ]

let adversary_json (r : Experiments.adversary_result) =
  Json.Obj
    [
      ("honest_before_kbps", Json.Float r.Experiments.honest_before_kbps);
      ("honest_after_kbps", Json.Float r.Experiments.honest_after_kbps);
      ("honest_loss_pct", Json.Float r.Experiments.honest_loss_pct);
      ("attacker_kbps", Json.Float r.Experiments.attacker_kbps);
      ("attacker_gain", Json.Float r.Experiments.attacker_gain);
      ( "containment_s",
        match r.Experiments.containment_s with
        | Some s -> Json.Float s
        | None -> Json.Null );
      ("tcp_kbps", Json.Float r.Experiments.tcp_kbps);
      ("keys_rejected", Json.Int r.Experiments.keys_rejected);
      ("lockouts", Json.Int r.Experiments.lockouts);
      ("grace_admissions", Json.Int r.Experiments.grace_admissions);
    ]

let workload_json (r : Experiments.workload_result) =
  Json.Obj
    [
      ("nodes", Json.Int r.Experiments.w_nodes);
      ("links", Json.Int r.Experiments.w_links);
      ("receivers", Json.Int r.Experiments.w_receivers);
      ("mean_goodput_kbps", Json.Float r.Experiments.w_mean_goodput_kbps);
      ("min_goodput_kbps", Json.Float r.Experiments.w_min_goodput_kbps);
      ("max_goodput_kbps", Json.Float r.Experiments.w_max_goodput_kbps);
      ("cross_kbps", Json.Float r.Experiments.w_cross_kbps);
      ("attacker_kbps", Json.Float r.Experiments.w_attacker_kbps);
      ("drops", Json.Int r.Experiments.w_drops);
      ("marks", Json.Int r.Experiments.w_marks);
      ("keys_rejected", Json.Int r.Experiments.w_keys_rejected);
      ("lockouts", Json.Int r.Experiments.w_lockouts);
    ]

let result_json = function
  | Experiments.Attack r -> attack_json r
  | Experiments.Sweep_point p -> sweep_point_json p
  | Experiments.Responsiveness r -> responsiveness_json r
  | Experiments.Rtt rows -> rtt_json rows
  | Experiments.Convergence receivers -> convergence_json receivers
  | Experiments.Overhead p -> overhead_json p
  | Experiments.Partial r -> partial_json r
  | Experiments.Adversary r -> adversary_json r
  | Experiments.Workload r -> workload_json r
  | Experiments.Study values ->
      Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) values)

(* --- scalar summaries --------------------------------------------------- *)

let final_of = function [] -> 0. | s -> snd (List.nth s (List.length s - 1))

let summary = function
  | Experiments.Attack r ->
      [
        ("f1_before_kbps", r.Experiments.f1_before);
        ("f1_after_kbps", r.Experiments.f1_after);
        ("f2_after_kbps", r.Experiments.f2_after);
        ("t1_after_kbps", r.Experiments.t1_after);
        ("t2_after_kbps", r.Experiments.t2_after);
      ]
  | Experiments.Sweep_point p ->
      let rates = p.Experiments.individual_kbps in
      let lo = List.fold_left Float.min infinity rates in
      let hi = List.fold_left Float.max neg_infinity rates in
      [
        ("sessions", float_of_int p.Experiments.sessions);
        ("average_kbps", p.Experiments.average_kbps);
        ("min_kbps", (if rates = [] then 0. else lo));
        ("max_kbps", (if rates = [] then 0. else hi));
      ]
  | Experiments.Responsiveness r ->
      [
        ("before_kbps", r.Experiments.before_kbps);
        ("during_kbps", r.Experiments.during_kbps);
        ("after_kbps", r.Experiments.after_kbps);
      ]
  | Experiments.Rtt rows ->
      let rates = List.map snd rows in
      let lo = List.fold_left Float.min infinity rates in
      let hi = List.fold_left Float.max neg_infinity rates in
      [
        ("receivers", float_of_int (List.length rows));
        ("mean_kbps", Mcc_util.Stats.mean rates);
        ("min_kbps", (if rates = [] then 0. else lo));
        ("max_kbps", (if rates = [] then 0. else hi));
      ]
  | Experiments.Convergence receivers ->
      ("receivers", float_of_int (List.length receivers))
      :: List.mapi
           (fun i s -> (Printf.sprintf "final_kbps_%d" (i + 1), final_of s))
           receivers
  | Experiments.Overhead p ->
      [
        ("x", p.Experiments.x);
        ("delta_analytic_pct", p.Experiments.delta_analytic);
        ("sigma_analytic_pct", p.Experiments.sigma_analytic);
        ("delta_measured_pct", p.Experiments.delta_measured);
        ("sigma_measured_pct", p.Experiments.sigma_measured);
      ]
  | Experiments.Partial r ->
      [
        ("protected_attacker_kbps", r.Experiments.protected_attacker_kbps);
        ("unprotected_attacker_kbps", r.Experiments.unprotected_attacker_kbps);
        ("honest_kbps", r.Experiments.honest_kbps);
      ]
  | Experiments.Adversary r ->
      [
        ("honest_before_kbps", r.Experiments.honest_before_kbps);
        ("honest_after_kbps", r.Experiments.honest_after_kbps);
        ("honest_loss_pct", r.Experiments.honest_loss_pct);
        ("attacker_kbps", r.Experiments.attacker_kbps);
        ("attacker_gain", r.Experiments.attacker_gain);
        ( "containment_s",
          match r.Experiments.containment_s with Some s -> s | None -> -1. );
        ("tcp_kbps", r.Experiments.tcp_kbps);
        ("keys_rejected", float_of_int r.Experiments.keys_rejected);
        ("lockouts", float_of_int r.Experiments.lockouts);
        ("grace_admissions", float_of_int r.Experiments.grace_admissions);
      ]
  | Experiments.Workload r ->
      [
        ("nodes", float_of_int r.Experiments.w_nodes);
        ("links", float_of_int r.Experiments.w_links);
        ("receivers", float_of_int r.Experiments.w_receivers);
        ("mean_goodput_kbps", r.Experiments.w_mean_goodput_kbps);
        ("min_goodput_kbps", r.Experiments.w_min_goodput_kbps);
        ("max_goodput_kbps", r.Experiments.w_max_goodput_kbps);
        ("cross_kbps", r.Experiments.w_cross_kbps);
        ("attacker_kbps", r.Experiments.w_attacker_kbps);
        ("drops", float_of_int r.Experiments.w_drops);
        ("marks", float_of_int r.Experiments.w_marks);
        ("keys_rejected", float_of_int r.Experiments.w_keys_rejected);
        ("lockouts", float_of_int r.Experiments.w_lockouts);
      ]
  | Experiments.Study values -> values
