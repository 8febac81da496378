(* Cross-run ledger payloads, history rendering, and entry diffing; the
   payload/wall conventions live in the interface.  Everything here is a
   pure function of its inputs — recording times come in as arguments
   and the only nondeterministic material ever written is confined to
   the wall suffix. *)

module Ledger = Mcc_obs.Ledger
module Metrics = Mcc_obs.Metrics
module Profile = Mcc_obs.Profile
module Prof = Mcc_obs.Prof

(* --- ledger payload builders ------------------------------------------- *)

let run_payload ~command ~config rows =
  let entry_json (r : Runner.row) =
    Json.Obj
      [
        ("name", Json.String r.Runner.entry.Runner.name);
        ("group", Json.String r.Runner.entry.Runner.group);
        ("spec", Spec.to_json r.Runner.entry.Runner.spec);
      ]
  in
  let row_json (r : Runner.row) =
    let p = r.Runner.profile in
    Json.Obj
      [
        ("name", Json.String r.Runner.entry.Runner.name);
        ( "summary",
          Json.Obj
            (List.map
               (fun (k, v) -> (k, Json.Float v))
               (Report.summary r.Runner.result)) );
        ("metrics", Metrics.values_json r.Runner.metrics);
        ( "profile",
          Json.Obj
            ([
               ("sched", Json.String p.Profile.sched);
               ("events", Json.Int p.Profile.events);
               ("queue_capacity", Json.Int p.Profile.queue_capacity);
             ]
            @
            match p.Profile.sched_stats with
            | Some s -> [ ("sched_stats", Profile.sched_stats_to_json s) ]
            | None -> []) );
      ]
  in
  Json.Obj
    [
      ( "config",
        Json.Obj
          ((("command", Json.String command) :: config)
          @ [ ("entries", Json.List (List.map entry_json rows)) ]) );
      ("rows", Json.List (List.map row_json rows));
    ]

let run_wall ~recorded rows =
  let wall_s =
    List.fold_left
      (fun acc (r : Runner.row) -> acc +. r.Runner.profile.Profile.wall_s)
      0. rows
  in
  let events =
    List.fold_left
      (fun acc (r : Runner.row) -> acc + r.Runner.profile.Profile.events)
      0 rows
  in
  [
    ("recorded_unix_s", Json.Float recorded);
    ("wall_s", Json.Float wall_s);
    ( "events_per_sec",
      Json.Float
        (if wall_s > 0. then float_of_int events /. wall_s else 0.) );
    ( "figures",
      Json.Obj
        (List.map
           (fun (r : Runner.row) ->
             ( r.Runner.entry.Runner.name,
               Json.Float r.Runner.profile.Profile.events_per_sec ))
           rows) );
  ]

let prof_wall = function
  | [] -> []
  | entries ->
      [
        ( "prof",
          Json.Obj
            (List.map
               (fun (e : Prof.entry) ->
                 (String.concat "/" e.Prof.path, Json.Float e.Prof.self_s))
               entries) );
      ]

(* --- lookup -------------------------------------------------------------- *)

let figures (e : Ledger.entry) =
  match List.assoc_opt "figures" e.Ledger.wall with
  | Some (Json.Obj fields) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun x -> (k, x)) (Json.to_float_opt v))
        fields
  | Some _ | None -> []

let find_value (e : Ledger.entry) ~key =
  match List.assoc_opt key (figures e) with
  | Some v -> Some v
  | None -> (
      match
        Option.bind (List.assoc_opt key e.Ledger.wall) Json.to_float_opt
      with
      | Some v -> Some v
      | None ->
          let rows =
            match Json.member "rows" e.Ledger.payload with
            | Some (Json.List rows) -> rows
            | Some _ | None -> []
          in
          let row_value row =
            let section name =
              Option.bind
                (Option.bind (Json.member name row) (Json.member key))
                Json.to_float_opt
            in
            match section "summary" with
            | Some v -> Some v
            | None -> section "metrics"
          in
          (match List.filter_map row_value rows with
          | [] -> None
          | vs ->
              Some
                (List.fold_left ( +. ) 0. vs /. float_of_int (List.length vs))))

(* --- mcc history -------------------------------------------------------- *)

let time_str unix_s =
  (* Rendering a stored timestamp, not reading the clock. *)
  let tm = Unix.gmtime unix_s in
  Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let history_table ?(metric = "events_per_sec") ?(width = 40) entries =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "%4s  %-8s %-24s %-16s %-21s %s\n" "#" "kind" "label" "digest" "recorded"
    metric;
  List.iter
    (fun (e : Ledger.entry) ->
      let recorded =
        match
          Option.bind
            (List.assoc_opt "recorded_unix_s" e.Ledger.wall)
            Json.to_float_opt
        with
        | Some t -> time_str t
        | None -> "-"
      in
      let value =
        match find_value e ~key:metric with
        | Some v -> Printf.sprintf "%.4g" v
        | None -> "-"
      in
      pf "%4d  %-8s %-24s %-16s %-21s %s\n" e.Ledger.seq e.Ledger.kind
        e.Ledger.label e.Ledger.digest recorded value)
    entries;
  let points =
    List.filter_map
      (fun (e : Ledger.entry) ->
        Option.map
          (fun v -> (float_of_int e.Ledger.seq, v))
          (find_value e ~key:metric))
      entries
  in
  (match points with
  | _ :: _ :: _ ->
      let ys = List.map snd points in
      let lo = List.fold_left Float.min Float.infinity ys in
      let hi = List.fold_left Float.max Float.neg_infinity ys in
      pf "\ntrend %s over %d entries (min %.4g, max %.4g):\n  |%s|\n" metric
        (List.length points) lo hi
        (Forensics.sparkline ~width points)
  | _ -> ());
  Buffer.contents buf

(* --- mcc diff ----------------------------------------------------------- *)

type delta = { key : string; va : float; vb : float; pct : float option }

type diff_report = {
  rendering : string;
  drifted : int;
  regressions : delta list;
}

(* Flatten a JSON tree to dotted-path leaves; leaves compare by their
   compact rendering (never polymorphic compare — floats travel here). *)
let rec flatten prefix json acc =
  let join k = if String.equal prefix "" then k else prefix ^ "." ^ k in
  match json with
  | Json.Obj fields ->
      List.fold_left (fun acc (k, v) -> flatten (join k) v acc) acc fields
  | Json.List items ->
      let _, acc =
        List.fold_left
          (fun (i, acc) v ->
            (i + 1, flatten (join (Printf.sprintf "%d" i)) v acc))
          (0, acc) items
      in
      acc
  | leaf -> (prefix, Json.to_string leaf) :: acc

let mk_delta key va vb =
  {
    key;
    va;
    vb;
    pct = (if Float.abs va > 0. then Some ((vb -. va) /. va) else None);
  }

let pct_str = function
  | Some p -> Printf.sprintf "%+.1f%%" (100. *. p)
  | None -> "n/a"

let diff ?(threshold = 0.05) (a : Ledger.entry) (b : Ledger.entry) =
  let buf = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "diff: #%d %s %s (%s)  ->  #%d %s %s (%s)\n" a.Ledger.seq a.Ledger.kind
    a.Ledger.label a.Ledger.digest b.Ledger.seq b.Ledger.kind b.Ledger.label
    b.Ledger.digest;
  if String.equal a.Ledger.digest b.Ledger.digest then
    pf "config: digests match (%s)\n" a.Ledger.digest
  else
    pf "config: DRIFT %s -> %s (comparing different configurations)\n"
      a.Ledger.digest b.Ledger.digest;
  (* Deterministic payload drift: field-by-field over the flattened
     payloads.  Same config + same code => zero. *)
  let fa = List.rev (flatten "" a.Ledger.payload []) in
  let fb = List.rev (flatten "" b.Ledger.payload []) in
  let changes =
    List.filter_map
      (fun (path, la) ->
        match List.assoc_opt path fb with
        | Some lb when String.equal la lb -> None
        | Some lb -> Some (path, la, lb)
        | None -> Some (path, la, "(absent)"))
      fa
    @ List.filter_map
        (fun (path, lb) ->
          if List.mem_assoc path fa then None
          else Some (path, "(absent)", lb))
        fb
  in
  let drifted = List.length changes in
  pf "payload: %d deterministic fields drifted\n" drifted;
  List.iteri
    (fun i (path, la, lb) ->
      if i < 20 then pf "  %s: %s -> %s\n" path la lb)
    changes;
  if drifted > 20 then pf "  ... and %d more\n" (drifted - 20);
  (* Figure deltas: throughput rates, so only drops regress. *)
  let figs_a = figures a and figs_b = figures b in
  let regressions = ref [] in
  (match (figs_a, figs_b) with
  | [], [] -> ()
  | _ ->
      pf "figures (events/s, regression threshold %.0f%%):\n"
        (100. *. threshold);
      List.iter
        (fun (key, va) ->
          match List.assoc_opt key figs_b with
          | None -> pf "  %-24s %12.4g -> %12s\n" key va "(absent)"
          | Some vb ->
              let d = mk_delta key va vb in
              let regressed =
                match d.pct with
                | Some p -> p < -.threshold
                | None -> false
              in
              if regressed then regressions := d :: !regressions;
              pf "  %-24s %12.4g -> %12.4g  %8s%s\n" key va vb (pct_str d.pct)
                (if regressed then "  REGRESSION" else ""))
        figs_a;
      List.iter
        (fun (key, vb) ->
          if not (List.mem_assoc key figs_a) then
            pf "  %-24s %12s -> %12.4g  (new)\n" key "(absent)" vb)
        figs_b);
  (* Wall drift. *)
  List.iter
    (fun key ->
      match
        ( Option.bind (List.assoc_opt key a.Ledger.wall) Json.to_float_opt,
          Option.bind (List.assoc_opt key b.Ledger.wall) Json.to_float_opt )
      with
      | Some va, Some vb ->
          let d = mk_delta key va vb in
          pf "wall: %-20s %12.4g -> %12.4g  %8s\n" key va vb (pct_str d.pct)
      | _ -> ())
    [ "wall_s"; "events_per_sec" ];
  (* Profiler self-time drift, when both entries carry a prof table. *)
  let prof_of (e : Ledger.entry) =
    match List.assoc_opt "prof" e.Ledger.wall with
    | Some (Json.Obj fields) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun x -> (k, x)) (Json.to_float_opt v))
          fields
    | Some _ | None -> []
  in
  (match (prof_of a, prof_of b) with
  | [], _ | _, [] -> ()
  | pa, pb ->
      pf "prof self-time drift (top shared spans):\n";
      let shared =
        List.filter_map
          (fun (key, va) ->
            Option.map (fun vb -> mk_delta key va vb) (List.assoc_opt key pb))
          pa
      in
      let by_magnitude =
        List.sort
          (fun x y ->
            Float.compare (Float.abs (y.vb -. y.va)) (Float.abs (x.vb -. x.va)))
          shared
      in
      List.iteri
        (fun i d ->
          if i < 10 then
            pf "  %-32s %10.4gs -> %10.4gs  %8s\n" d.key d.va d.vb
              (pct_str d.pct))
        by_magnitude);
  { rendering = Buffer.contents buf; drifted; regressions = List.rev !regressions }
