module Spec = Mcc_core.Spec
module Experiments = Mcc_core.Experiments
module Runner = Mcc_core.Runner

type cell = {
  params : Spec.adversary_params;
  result : Experiments.adversary_result;
}

let cells rows =
  List.filter_map
    (fun (row : Runner.row) ->
      match (row.Runner.entry.Runner.spec, row.Runner.result) with
      | Spec.Adversary params, Experiments.Adversary result ->
          Some { params; result }
      | _ -> None)
    rows

let contained (r : Experiments.adversary_result) = r.containment_s <> None

let verdict (r : Experiments.adversary_result) =
  match r.Experiments.containment_s with
  | Some s ->
      Printf.sprintf "contained %.0fs (gain %.1fx, honest -%.0f%%)" s
        r.Experiments.attacker_gain r.Experiments.honest_loss_pct
  | None ->
      Printf.sprintf "BREACH (gain %.1fx, honest -%.0f%%)"
        r.Experiments.attacker_gain r.Experiments.honest_loss_pct

(* Rank defences per attack: contained beats uncontained, then less
   honest damage, then less attacker gain. *)
let rank cs =
  List.sort
    (fun a b ->
      let key (c : cell) =
        ( (if contained c.result then 0 else 1),
          c.result.Experiments.honest_loss_pct,
          c.result.Experiments.attacker_gain )
      in
      let ba, la, ga = key a and bb, lb, gb = key b in
      match Int.compare ba bb with
      | 0 -> ( match Float.compare la lb with 0 -> Float.compare ga gb | c -> c)
      | c -> c)
    cs

let dedup_keep_order xs =
  List.fold_left (fun acc x -> if List.mem x acc then acc else acc @ [ x ]) [] xs

let render ppf rows =
  let cs = cells rows in
  let attacks = dedup_keep_order (List.map (fun c -> c.params.Spec.attack) cs) in
  let protocols =
    dedup_keep_order (List.map (fun c -> c.params.Spec.protocol) cs)
  in
  let defences =
    dedup_keep_order (List.map (fun c -> c.params.Spec.defence) cs)
  in
  let find ~attack ~protocol ~defence =
    List.find_opt
      (fun c ->
        c.params.Spec.attack = attack
        && c.params.Spec.protocol = protocol
        && c.params.Spec.defence = defence)
      cs
  in
  Format.fprintf ppf "# Attack x defence scorecard@.@.";
  Format.fprintf ppf
    "%d cells; damage measured as honest-session goodput loss, attacker \
     goodput in fair shares (%.0f kbps each), and seconds until the \
     attacker's 5 s goodput windows stay within twice the larger of a fair \
     share and the victim's concurrent goodput.@.@."
    (List.length cs)
    (Mcc_core.Defaults.fair_share_bps /. 1000.);
  List.iter
    (fun protocol ->
      Format.fprintf ppf "## %s@.@." (Spec.protocol_heading protocol);
      Format.fprintf ppf "| attack |";
      List.iter
        (fun d -> Format.fprintf ppf " %s |" (Spec.defence_str d))
        defences;
      Format.fprintf ppf "@.|---|";
      List.iter (fun _ -> Format.fprintf ppf "---|") defences;
      Format.fprintf ppf "@.";
      List.iter
        (fun attack ->
          Format.fprintf ppf "| %s |" (Spec.attack_str attack);
          List.iter
            (fun defence ->
              match find ~attack ~protocol ~defence with
              | Some c -> Format.fprintf ppf " %s |" (verdict c.result)
              | None -> Format.fprintf ppf " - |")
            defences;
          Format.fprintf ppf "@.")
        attacks;
      Format.fprintf ppf "@.")
    protocols;
  Format.fprintf ppf "## Defence ranking per attack@.@.";
  List.iter
    (fun attack ->
      let of_attack =
        List.filter (fun c -> c.params.Spec.attack = attack) cs
      in
      if of_attack <> [] then begin
        Format.fprintf ppf "- **%s**: " (Spec.attack_str attack);
        let ranked = rank of_attack in
        List.iteri
          (fun i c ->
            if i > 0 then Format.fprintf ppf " > ";
            Format.fprintf ppf "%s/%s (%s)"
              (Spec.defence_str c.params.Spec.defence)
              (Spec.protocol_str c.params.Spec.protocol)
              (if contained c.result then "ok" else "breach"))
          ranked;
        Format.fprintf ppf "@."
      end)
    attacks;
  (* The headline claim the matrix exists to check. *)
  let sigma_cells =
    List.filter (fun c -> (Spec.deployment c.params.Spec.defence).Spec.sigma) cs
  in
  let sigma_breaches = List.filter (fun c -> not (contained c.result)) sigma_cells in
  if sigma_cells <> [] then begin
    Format.fprintf ppf "@.";
    if sigma_breaches = [] then
      Format.fprintf ppf
        "**DELTA+SIGMA contains every attack in this matrix.**@."
    else begin
      Format.fprintf ppf "**DELTA+SIGMA breached by:**@.";
      List.iter
        (fun c ->
          Format.fprintf ppf "- %s/%s under %s: %s@."
            (Spec.attack_str c.params.Spec.attack)
            (Spec.protocol_str c.params.Spec.protocol)
            (Spec.defence_str c.params.Spec.defence)
            (verdict c.result))
        sigma_breaches
    end
  end

let to_string rows =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  render ppf rows;
  Format.pp_print_flush ppf ();
  Buffer.contents buf
