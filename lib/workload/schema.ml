module Json = Mcc_core.Json
module Spec = Mcc_core.Spec
module Defaults = Mcc_core.Defaults
module Runner = Mcc_core.Runner

let version = 1

let ( let* ) = Result.bind

let err ctx msg = Error (Printf.sprintf "%s: %s" ctx msg)

(* --- Typed field access with error paths -------------------------------- *)

let as_obj ctx = function
  | Json.Obj fields -> Ok fields
  | _ -> err ctx "expected an object"

let check_keys ctx allowed fields =
  match List.find_opt (fun (k, _) -> not (List.mem k allowed)) fields with
  | Some (k, _) ->
      err
        (Printf.sprintf "%s.%s" ctx k)
        (Printf.sprintf "unknown field (allowed: %s)"
           (String.concat ", " allowed))
  | None -> Ok ()

let field ctx fields name =
  match List.assoc_opt name fields with
  | Some v -> Ok v
  | None -> err (Printf.sprintf "%s.%s" ctx name) "missing required field"

let opt_field fields name = List.assoc_opt name fields

let as_int ctx = function
  | Json.Int i -> Ok i
  | _ -> err ctx "expected an integer"

(* Non-finite numbers are rejected here, for every float field: a
   [1e999] duration would otherwise run without end. *)
let as_float ctx v =
  match Json.to_float_opt v with
  | Some f when Float.is_finite f -> Ok f
  | Some _ -> err ctx "expected a finite number"
  | None -> err ctx "expected a number"

let as_string ctx = function
  | Json.String s -> Ok s
  | _ -> err ctx "expected a string"

let int_field ctx fields name =
  let* v = field ctx fields name in
  as_int (Printf.sprintf "%s.%s" ctx name) v

let float_field ctx fields name =
  let* v = field ctx fields name in
  as_float (Printf.sprintf "%s.%s" ctx name) v

let opt_float_field ctx fields name ~default =
  match opt_field fields name with
  | None -> Ok default
  | Some v -> as_float (Printf.sprintf "%s.%s" ctx name) v

let opt_int_field ctx fields name ~default =
  match opt_field fields name with
  | None -> Ok default
  | Some v -> as_int (Printf.sprintf "%s.%s" ctx name) v

let positive ctx what v =
  if v > 0. then Ok v else err ctx (Printf.sprintf "%s must be positive" what)

(* --- Enumerations from the Spec registries ------------------------------ *)

(* A field naming an entry of a Spec registry; an unknown name's
   diagnostic lists the registry. *)
let registry_field ctx fields name ~str registry =
  let path = Printf.sprintf "%s.%s" ctx name in
  let* v = field ctx fields name in
  let* s = as_string path v in
  match List.find_opt (fun x -> String.equal (str x) s) registry with
  | Some x -> Ok x
  | None ->
      err path
        (Printf.sprintf "unknown %s %S (one of: %s)" name s
           (String.concat ", " (List.map str registry)))

(* --- Nested objects ----------------------------------------------------- *)

let topology ctx v =
  let* fields = as_obj ctx v in
  let* kind = field ctx fields "kind" in
  let* kind = as_string (ctx ^ ".kind") kind in
  match kind with
  | "dumbbell" ->
      let* () = check_keys ctx [ "kind" ] fields in
      Ok Spec.Dumbbell_topo
  | "fat_tree" ->
      let* () = check_keys ctx [ "kind"; "k"; "core_rate_bps" ] fields in
      let* k = opt_int_field ctx fields "k" ~default:4 in
      let* core_rate_bps =
        opt_float_field ctx fields "core_rate_bps" ~default:2_000_000.
      in
      if k < 2 || k mod 2 <> 0 then
        err (ctx ^ ".k") "fat-tree arity must be even and >= 2"
      else
        let* _ = positive (ctx ^ ".core_rate_bps") "core rate" core_rate_bps in
        Ok (Spec.Fat_tree { k; core_rate_bps })
  | "star_lans" ->
      let* () =
        check_keys ctx [ "kind"; "lans"; "hosts_per_lan"; "core_rate_bps" ] fields
      in
      let* lans = opt_int_field ctx fields "lans" ~default:4 in
      let* hosts_per_lan = opt_int_field ctx fields "hosts_per_lan" ~default:4 in
      let* core_rate_bps =
        opt_float_field ctx fields "core_rate_bps" ~default:2_000_000.
      in
      if lans < 1 then err (ctx ^ ".lans") "need at least one LAN"
      else if hosts_per_lan < 1 then
        err (ctx ^ ".hosts_per_lan") "need at least one host per LAN"
      else
        let* _ = positive (ctx ^ ".core_rate_bps") "core rate" core_rate_bps in
        Ok (Spec.Star_lans { lans; hosts_per_lan; core_rate_bps })
  | "isp_random" ->
      let* () =
        check_keys ctx
          [ "kind"; "routers"; "extra_links"; "hosts_per_edge"; "core_rate_bps" ]
          fields
      in
      let* routers = opt_int_field ctx fields "routers" ~default:8 in
      let* extra_links = opt_int_field ctx fields "extra_links" ~default:3 in
      let* hosts_per_edge = opt_int_field ctx fields "hosts_per_edge" ~default:2 in
      let* core_rate_bps =
        opt_float_field ctx fields "core_rate_bps" ~default:2_000_000.
      in
      if routers < 2 then err (ctx ^ ".routers") "need at least two routers"
      else if extra_links < 0 then
        err (ctx ^ ".extra_links") "must be non-negative"
      else if hosts_per_edge < 1 then
        err (ctx ^ ".hosts_per_edge") "need at least one host per edge"
      else
        let* _ = positive (ctx ^ ".core_rate_bps") "core rate" core_rate_bps in
        Ok (Spec.Isp_random { routers; extra_links; hosts_per_edge; core_rate_bps })
  | other ->
      err (ctx ^ ".kind")
        (Printf.sprintf
           "unknown topology %S (one of: dumbbell, fat_tree, star_lans, \
            isp_random)"
           other)

let churn ctx v =
  let* fields = as_obj ctx v in
  let* kind = field ctx fields "kind" in
  let* kind = as_string (ctx ^ ".kind") kind in
  match kind with
  | "none" ->
      let* () = check_keys ctx [ "kind" ] fields in
      Ok Spec.No_churn
  | "flash_crowd" ->
      let* () = check_keys ctx [ "kind"; "at"; "arrivals"; "leave_after" ] fields in
      let* at = float_field ctx fields "at" in
      let* arrivals = int_field ctx fields "arrivals" in
      let* leave_after = opt_float_field ctx fields "leave_after" ~default:0. in
      if arrivals < 1 then err (ctx ^ ".arrivals") "need at least one arrival"
      else if at < 0. then err (ctx ^ ".at") "must be non-negative"
      else Ok (Spec.Flash_crowd { at; arrivals; leave_after })
  | "diurnal" ->
      let* () = check_keys ctx [ "kind"; "period"; "fraction" ] fields in
      let* period = float_field ctx fields "period" in
      let* fraction = float_field ctx fields "fraction" in
      (* Each cycling receiver gets one interval per period, so a tiny
         period exhausts memory; the on-half of a cycle must hold at
         least one FLID-DL slot. *)
      let min_period = 2. *. Defaults.flid_dl_slot in
      if period < min_period then
        err (ctx ^ ".period")
          (Printf.sprintf "must be at least %g s (two FLID-DL slots)"
             min_period)
      else if fraction <= 0. || fraction > 1. then
        err (ctx ^ ".fraction") "must be in (0, 1]"
      else Ok (Spec.Diurnal { period; fraction })
  | "regional_outage" ->
      let* () = check_keys ctx [ "kind"; "at"; "restore_at"; "fraction" ] fields in
      let* at = float_field ctx fields "at" in
      let* restore_at = float_field ctx fields "restore_at" in
      let* fraction = float_field ctx fields "fraction" in
      if at < 0. then err (ctx ^ ".at") "must be non-negative"
      else if restore_at <= at then
        err (ctx ^ ".restore_at") "must be after the outage"
      else if fraction <= 0. || fraction > 1. then
        err (ctx ^ ".fraction") "must be in (0, 1]"
      else Ok (Spec.Regional_outage { at; restore_at; fraction })
  | other ->
      err (ctx ^ ".kind")
        (Printf.sprintf
           "unknown churn model %S (one of: none, flash_crowd, diurnal, \
            regional_outage)"
           other)

let traffic_one ctx v =
  let* fields = as_obj ctx v in
  let* kind = field ctx fields "kind" in
  let* kind = as_string (ctx ^ ".kind") kind in
  match kind with
  | "web" ->
      let* () =
        check_keys ctx [ "kind"; "flows"; "rate_bps"; "mean_on"; "mean_off" ]
          fields
      in
      let* flows = opt_int_field ctx fields "flows" ~default:4 in
      let* rate_bps = opt_float_field ctx fields "rate_bps" ~default:200_000. in
      let* mean_on = opt_float_field ctx fields "mean_on" ~default:5. in
      let* mean_off = opt_float_field ctx fields "mean_off" ~default:5. in
      if flows < 1 then err (ctx ^ ".flows") "need at least one flow"
      else
        let* _ = positive (ctx ^ ".rate_bps") "rate" rate_bps in
        let* _ = positive (ctx ^ ".mean_on") "mean on period" mean_on in
        let* _ = positive (ctx ^ ".mean_off") "mean off period" mean_off in
        Ok (Spec.Web_mix { flows; rate_bps; mean_on; mean_off })
  | "tcp" ->
      let* () = check_keys ctx [ "kind"; "flows" ] fields in
      let* flows = opt_int_field ctx fields "flows" ~default:1 in
      if flows < 1 then err (ctx ^ ".flows") "need at least one flow"
      else Ok (Spec.Tcp_flows { flows })
  | other ->
      err (ctx ^ ".kind")
        (Printf.sprintf "unknown traffic model %S (one of: web, tcp)" other)

let attack ctx v =
  let* fields = as_obj ctx v in
  let* kind = field ctx fields "kind" in
  let* kind = as_string (ctx ^ ".kind") kind in
  let* at = opt_float_field ctx fields "at" ~default:40. in
  let* () =
    if at < 0. then err (ctx ^ ".at") "must be non-negative" else Ok ()
  in
  let* k =
    match kind with
    | "inflate" ->
        let* () = check_keys ctx [ "kind"; "at" ] fields in
        Ok Spec.Persistent_inflation
    | "pulse" ->
        let* () = check_keys ctx [ "kind"; "at"; "period_s"; "duty" ] fields in
        let* period_s = opt_float_field ctx fields "period_s" ~default:10. in
        let* duty = opt_float_field ctx fields "duty" ~default:0.5 in
        let* _ = positive (ctx ^ ".period_s") "period" period_s in
        if duty <= 0. || duty >= 1. then err (ctx ^ ".duty") "must be in (0, 1)"
        else Ok (Spec.Pulse_inflation { period_s; duty })
    | "guess" ->
        let* () = check_keys ctx [ "kind"; "at"; "budget_per_slot" ] fields in
        let* budget_per_slot =
          opt_int_field ctx fields "budget_per_slot" ~default:4
        in
        if budget_per_slot < 1 then
          err (ctx ^ ".budget_per_slot") "must be positive"
        else Ok (Spec.Key_guessing { budget_per_slot })
    | "replay" ->
        let* () = check_keys ctx [ "kind"; "at"; "lag_slots" ] fields in
        let* lag_slots = opt_int_field ctx fields "lag_slots" ~default:4 in
        if lag_slots < 1 then err (ctx ^ ".lag_slots") "must be positive"
        else Ok (Spec.Stale_replay { lag_slots })
    | "churn" ->
        let* () = check_keys ctx [ "kind"; "at"; "period_slots" ] fields in
        let* period_slots =
          opt_float_field ctx fields "period_slots" ~default:2.5
        in
        let* _ = positive (ctx ^ ".period_slots") "period" period_slots in
        Ok (Spec.Grace_churn { period_slots })
    | "collude" ->
        let* () = check_keys ctx [ "kind"; "at"; "colluders" ] fields in
        let* colluders = opt_int_field ctx fields "colluders" ~default:3 in
        if colluders < 1 then err (ctx ^ ".colluders") "must be positive"
        else Ok (Spec.Collusion { colluders })
    | other ->
        err (ctx ^ ".kind")
          (Printf.sprintf
             "unknown attack %S (one of: inflate, pulse, guess, replay, churn, \
              collude)"
             other)
  in
  Ok (k, at)

(* --- The document ------------------------------------------------------- *)

let allowed_top =
  [
    "version"; "name"; "seed"; "seeds"; "duration"; "topology"; "protocol";
    "defence"; "receivers"; "churn"; "traffic"; "attack";
  ]

let params_of_json ~ctx json =
  let* fields = as_obj ctx json in
  let* () = check_keys ctx allowed_top fields in
  let* v = int_field ctx fields "version" in
  let* () =
    if v <> version then
      err (ctx ^ ".version")
        (Printf.sprintf "unsupported schema version %d (this build reads %d)" v
           version)
    else Ok ()
  in
  let* name = field ctx fields "name" in
  let* name = as_string (ctx ^ ".name") name in
  let* () =
    if String.length name = 0 then err (ctx ^ ".name") "must be non-empty"
    else Ok ()
  in
  let* seeds =
    match (opt_field fields "seeds", opt_field fields "seed") with
    | Some _, Some _ ->
        err (ctx ^ ".seeds") "give either seed or seeds, not both"
    | Some (Json.List xs), None ->
        if xs = [] then err (ctx ^ ".seeds") "must be non-empty"
        else
          let rec ints i acc = function
            | [] -> Ok (List.rev acc)
            | x :: rest ->
                let* n = as_int (Printf.sprintf "%s.seeds[%d]" ctx i) x in
                ints (i + 1) (n :: acc) rest
          in
          ints 0 [] xs
    | Some _, None -> err (ctx ^ ".seeds") "expected a list of integers"
    | None, Some s ->
        let* s = as_int (ctx ^ ".seed") s in
        Ok [ s ]
    | None, None -> Ok [ Spec.default_workload.Spec.seed ]
  in
  let* duration = float_field ctx fields "duration" in
  let* _ = positive (ctx ^ ".duration") "duration" duration in
  let* topo_json = field ctx fields "topology" in
  let* topology = topology (ctx ^ ".topology") topo_json in
  let* protocol =
    registry_field ctx fields "protocol" ~str:Spec.protocol_str Spec.protocols
  in
  let* defence =
    registry_field ctx fields "defence" ~str:Spec.defence_str Spec.defences
  in
  let* receivers = int_field ctx fields "receivers" in
  let* () =
    if receivers < 1 then err (ctx ^ ".receivers") "need at least one receiver"
    else Ok ()
  in
  let* churn =
    match opt_field fields "churn" with
    | None -> Ok Spec.No_churn
    | Some v -> churn (ctx ^ ".churn") v
  in
  let* traffic =
    match opt_field fields "traffic" with
    | None -> Ok []
    | Some (Json.List xs) ->
        let rec each i acc = function
          | [] -> Ok (List.rev acc)
          | x :: rest ->
              let* t = traffic_one (Printf.sprintf "%s.traffic[%d]" ctx i) x in
              each (i + 1) (t :: acc) rest
        in
        each 0 [] xs
    | Some _ -> err (ctx ^ ".traffic") "expected a list of traffic objects"
  in
  let* attack, attack_at =
    match opt_field fields "attack" with
    | None -> Ok (None, Spec.default_workload.Spec.attack_at)
    | Some v ->
        let* k, at = attack (ctx ^ ".attack") v in
        Ok (Some k, at)
  in
  let* () =
    if attack <> None && attack_at >= duration then
      err (ctx ^ ".attack.at") "attack starts after the run ends"
    else Ok ()
  in
  (* Capacity: the topology must seat the steady population plus any
     churn arrivals.  The arrivals are compared with the seats the
     receivers leave, so no sum can wrap; a dumbbell seats any count. *)
  let arrivals = Churn.arrivals churn in
  let cap = Topo_gen.capacity ~spec:topology ~hosts:max_int in
  let* () =
    if arrivals > cap - receivers then
      err (ctx ^ ".receivers")
        (Printf.sprintf "%d receivers%s exceed the %s topology's %d receiver \
                         hosts"
           receivers
           (if arrivals = 0 then ""
            else Printf.sprintf " plus %d churn.arrivals" arrivals)
           (Spec.topology_str topology) cap)
    else Ok ()
  in
  let params seed =
    {
      Spec.seed;
      duration;
      topology;
      protocol;
      defence;
      receivers;
      churn;
      traffic;
      attack;
      attack_at;
    }
  in
  Ok (name, List.map (fun s -> (s, params s)) seeds)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '-')
    name

let entries_of_json ~ctx json =
  let* name, seeded = params_of_json ~ctx json in
  let multi = List.length seeded > 1 in
  Ok
    (List.map
       (fun (seed, p) ->
         {
           Runner.name =
             (if multi then Printf.sprintf "%s-s%d" (sanitize name) seed
              else sanitize name);
           group = "workload";
           doc = Format.asprintf "%a" Spec.pp (Spec.Workload p);
           spec = Spec.Workload p;
         })
       seeded)

let load ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
      match Json.of_string contents with
      | Error msg -> Error (Printf.sprintf "%s: invalid JSON: %s" path msg)
      | Ok json -> entries_of_json ~ctx:path json)
