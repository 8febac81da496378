(* Command-line driver for the paper's experiments.

   Every experiment is a first-class spec in Mcc_core.Runner's registry.
   `run`, `matrix` and `workload run` execute batches of specs across
   domains through one driver: shared output options, pluggable sinks,
   the run ledger and a closing summary line.  `trace` and `profile`
   rerun entries under the tracer and the self-profiler; `report`,
   `history` and `diff` read back what the others saved.

   Examples:
     mcc list
     mcc run --all --jobs 4 --json results.jsonl --csv results.csv
     mcc run --only fig8a,fig9a --quick --jobs 2
     mcc run --only fig1,fig7
     mcc run --only fig1 --quick --metrics=-
     mcc run --only fig1 --series=fig1.jsonl --sample-dt 0.5 --quiet
     mcc trace --only fig1 --quick --filter sigma,link --out trace.jsonl
     mcc report --series fig1.jsonl --trace trace.jsonl
     mcc profile matrix-inflate-flid-delta+sigma --quick --folded out.folded
     mcc report --series fig1.jsonl --profile prof.json
     mcc matrix --attacks inflate --protocols flid -o scorecard.md
     mcc workload run workloads/fat_tree_flash_crowd.json --quick
*)

open Cmdliner
module E = Mcc_core.Experiments
module Runner = Mcc_core.Runner
module Sink = Mcc_core.Sink
module Spec = Mcc_core.Spec
module Forensics = Mcc_core.Forensics
module Json = Mcc_core.Json
module Metrics = Mcc_obs.Metrics
module Profile = Mcc_obs.Profile
module Tracer = Mcc_obs.Tracer
module Ledger = Mcc_obs.Ledger
module Progress = Mcc_obs.Progress
module Crossrun = Mcc_core.Crossrun

let fmt = Format.std_formatter

(* --- registry batch commands -------------------------------------------- *)

let list_cmd =
  let run json =
    if json then
      (* One machine-readable document so external tooling (and ledger
         filters) can enumerate specs without scraping columns. *)
      print_string
        (Json.to_string
           (Json.Obj
              [
                ( "experiments",
                  Json.List
                    (List.map
                       (fun (e : Runner.entry) ->
                         Json.Obj
                           [
                             ("name", Json.String e.Runner.name);
                             ("group", Json.String e.Runner.group);
                             ("kind", Json.String (Spec.kind e.Runner.spec));
                             ("doc", Json.String e.Runner.doc);
                           ])
                       (Runner.all ())) );
                ( "groups",
                  Json.List
                    (List.map (fun g -> Json.String g) (Runner.groups ())) );
              ])
        ^ "\n")
    else begin
      let width f =
        List.fold_left (fun w e -> max w (String.length (f e))) 4 (Runner.all ())
      in
      let nw = width (fun e -> e.Runner.name)
      and gw = width (fun e -> e.Runner.group) in
      let line name group kind doc =
        Format.fprintf fmt "%-*s %-*s %-14s %s@." nw name gw group kind doc
      in
      line "NAME" "GROUP" "KIND" "DOC";
      List.iter
        (fun (e : Runner.entry) ->
          line e.Runner.name e.Runner.group (Spec.kind e.Runner.spec)
            e.Runner.doc)
        (Runner.all ());
      Format.fprintf fmt "@.%d experiments; groups: %s@."
        (List.length (Runner.all ()))
        (String.concat ", " (Runner.groups ()))
    end
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit one JSON document instead of the pretty table.")
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List every registered experiment spec.")
    Term.(const run $ json)

let at_quick ~quick (e : Runner.entry) =
  if quick then
    { e with Runner.spec = Spec.scale_time e.Runner.spec ~factor:0.25 }
  else e

(* Shared by `run` and `trace`: resolve --all/--only into registry
   entries and apply --quick. *)
let resolve_entries ~cmd ~all ~only ~quick =
  let entries =
    if all then Runner.all ()
    else
      match only with
      | [] ->
          Printf.eprintf "mcc %s: select experiments with %s--only NAME,...\n"
            cmd
            (if cmd = "run" then "--all or " else "");
          exit 2
      | names ->
          List.concat_map
            (fun name ->
              match Runner.find name with
              | [] ->
                  Printf.eprintf
                    "mcc %s: unknown experiment %S (try `mcc list`)\n" cmd name;
                  exit 2
              | entries -> entries)
            names
  in
  List.map (at_quick ~quick) entries

let only_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "only" ] ~docv:"NAME,..."
        ~doc:
          "Run the named experiments; a figure/group name (e.g. \
           $(b,fig8a)) selects all of its points.")

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:"Scale every duration by 1/4 for an abbreviated pass.")

(* Shared by `run` and `matrix`.  Backends fire identical schedules (see
   Mcc_engine.Scheduler), so this is purely a performance knob and never
   changes any sink output. *)
let sched_arg =
  let backend_conv =
    let parse s =
      match Mcc_engine.Scheduler.of_name s with
      | Ok b -> Ok b
      | Error e -> Error (`Msg e)
    in
    let print ppf b =
      Format.pp_print_string ppf (Mcc_engine.Scheduler.backend_name b)
    in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt (some backend_conv) None
    & info [ "sched" ] ~docv:"BACKEND"
        ~doc:
          "Event-scheduler backend: $(b,heap) (default) or $(b,wheel). \
           Both fire identical schedules; $(b,wheel) is faster on \
           churn-heavy event populations.")

(* "-" means stdout; anything else is a file truncated at open. *)
let output_writer ~cmd path =
  if path = "-" then ((fun s -> print_string s), fun () -> flush stdout)
  else
    match open_out path with
    | oc -> (output_string oc, fun () -> close_out oc)
    | exception Sys_error msg ->
        Printf.eprintf "mcc %s: cannot open %s: %s\n" cmd path msg;
        exit 2

(* --- run ledger + live telemetry (shared by run/matrix/profile) --------- *)

let no_ledger_arg =
  Arg.(
    value & flag
    & info [ "no-ledger" ]
        ~doc:
          "Do not record this invocation in the run ledger \
           ($(b,.mcc/ledger), overridable via $(b,MCC_LEDGER)).")

(* Recording is telemetry: a ledger failure warns and never fails the
   run that produced the results. *)
let record_ledger ~no_ledger ~kind ~label ~payload ~wall =
  if not no_ledger then begin
    let dir = Ledger.default_dir () in
    match Ledger.append ~dir ~kind ~label ~payload ~wall () with
    | Ok _ -> ()
    | Error msg -> Printf.eprintf "mcc %s: ledger: %s (continuing)\n" kind msg
  end

let progress_arg =
  Arg.(
    value
    & vflag None
        [
          ( Some true,
            info [ "progress" ]
              ~doc:"Force the live stderr progress meter on." );
          ( Some false,
            info [ "no-progress" ]
              ~doc:"Force the live stderr progress meter off." );
        ])

(* Meter default: on when stderr is a terminal.  The meter is
   stderr-only and ephemeral — sinks are fed after the batch in entry
   order, so their bytes are identical with the meter on or off. *)
let progress_callback progress =
  let enabled =
    match progress with Some b -> b | None -> Unix.isatty Unix.stderr
  in
  if not enabled then None
  else
    Some
      (fun (s : Progress.sample) ->
        output_string stderr ("\r" ^ Progress.render s);
        if s.Progress.final then output_string stderr "\n";
        flush stderr)

(* --- the batch driver (run, matrix, workload run) ----------------------- *)

type batch = {
  jobs : int;
  sched : Mcc_engine.Scheduler.backend option;
  json : string option;
  csv : string option;
  quiet : bool;
  on_progress : (Progress.sample -> unit) option;
  no_ledger : bool;
}

let batch_term =
  let make jobs sched json csv quiet progress no_ledger =
    { jobs; sched; json; csv; quiet;
      on_progress = progress_callback progress; no_ledger }
  in
  let jobs =
    Arg.(
      value
      & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Run up to $(docv) experiments concurrently (OCaml domains).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH" ~doc:"Write one JSON object per run.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"PATH"
          ~doc:"Write summary metrics as name,group,metric,value rows.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ]
          ~doc:"Suppress the human-readable report and the summary line.")
  in
  Term.(
    const make $ jobs $ sched_arg $ json $ csv $ quiet $ progress_arg
    $ no_ledger_arg)

(* The pretty report on stdout (unless --quiet) and the --json/--csv
   files. *)
let open_sinks ~cmd ~pretty b =
  try
    (if pretty && not b.quiet then [ Sink.pretty fmt ] else [])
    @ Option.to_list (Option.map Sink.jsonl_file b.json)
    @ Option.to_list (Option.map Sink.csv_file b.csv)
  with Sys_error msg ->
    Printf.eprintf "mcc %s: cannot open sink: %s\n" cmd msg;
    exit 2

(* Runs the batch, closes its sinks, writes the command's own outputs
   ([finish]), records the ledger entry and prints the summary line. *)
let drive ~kind ~label ?(config = []) ~noun ?(finish = ignore) b ~sinks run =
  let rows, elapsed = Profile.with_wall_clock run in
  List.iter Sink.close sinks;
  finish rows;
  record_ledger ~no_ledger:b.no_ledger ~kind ~label
    ~payload:(Crossrun.run_payload ~command:kind ~config rows)
    ~wall:(Crossrun.run_wall ~recorded:(Profile.now ()) rows);
  if not b.quiet then
    let n = List.length rows in
    Format.fprintf fmt "@.[%d %s%s in %.1fs, jobs=%d]@." n noun
      (if n = 1 then "" else "s")
      elapsed b.jobs

let run_cmd =
  let run all only quick b metrics metrics_format series sample_dt =
    if not (Float.is_finite sample_dt && sample_dt > 0.) then begin
      Printf.eprintf "mcc run: --sample-dt must be finite and positive\n";
      exit 2
    end;
    let entries = resolve_entries ~cmd:"run" ~all ~only ~quick in
    let series_writer =
      Option.map (fun path -> output_writer ~cmd:"run" path) series
    in
    let sinks =
      open_sinks ~cmd:"run" ~pretty:true b
      @ Option.to_list
          (Option.map (fun (write, _) -> Sink.series_jsonl write) series_writer)
    in
    let sample_dt = Option.map (fun _ -> sample_dt) series in
    let write_metrics rows path =
      let write, close = output_writer ~cmd:"run" path in
      (match metrics_format with
      | `Json ->
          List.iter
            (fun (row : Runner.row) ->
              write
                (Json.to_string
                   (Json.Obj
                      [
                        ("name", Json.String row.Runner.entry.Runner.name);
                        ("metrics", Metrics.values_json row.Runner.metrics);
                        (* wall-clock fields stay last on the line *)
                        ("profile", Profile.to_json row.Runner.profile);
                      ])
                ^ "\n"))
            rows
      | `Openmetrics ->
          write
            (Metrics.openmetrics_page
               (List.map
                  (fun (row : Runner.row) ->
                    ( [ ("run", row.Runner.entry.Runner.name) ],
                      row.Runner.metrics ))
                  rows)));
      close ()
    in
    drive ~kind:"run"
      ~label:(if all then "all" else String.concat "," only)
      ~noun:"experiment" b ~sinks
      ~finish:(fun rows ->
        Option.iter (fun (_, close) -> close ()) series_writer;
        Option.iter (write_metrics rows) metrics)
      (fun () ->
        Runner.run_batch ~jobs:b.jobs ?sched:b.sched ?sample_dt ~sinks
          ?on_progress:b.on_progress entries)
  in
  let all =
    Arg.(value & flag & info [ "all" ] ~doc:"Run every registered experiment.")
  in
  let metrics =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "metrics" ] ~docv:"PATH"
          ~doc:
            "Write the metric snapshots; $(docv) defaults to $(b,-) \
             (stdout).  The default format is one JSON line per run with \
             snapshot and event-loop profile; see $(b,--metrics-format).")
  in
  let metrics_format =
    let parse = function
      | "json" -> Ok `Json
      | "openmetrics" -> Ok `Openmetrics
      | s ->
          Error (`Msg (Printf.sprintf "unknown format %S (json|openmetrics)" s))
    in
    let print ppf v =
      Format.pp_print_string ppf
        (match v with `Json -> "json" | `Openmetrics -> "openmetrics")
    in
    Arg.(
      value
      & opt (conv (parse, print)) `Json
      & info [ "metrics-format" ] ~docv:"FORMAT"
          ~doc:
            "$(b,--metrics) format: $(b,json) (default; one line per run, \
             profile last) or $(b,openmetrics) (one scrape-able text \
             exposition, runs distinguished by a $(b,run) label).")
  in
  let series =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "series" ] ~docv:"PATH"
          ~doc:
            "Sample time series during each run and write one JSON line \
             per run (the $(b,mcc report) input format); $(docv) defaults \
             to $(b,-) (stdout).")
  in
  let sample_dt =
    Arg.(
      value & opt float 1.0
      & info [ "sample-dt" ] ~docv:"SECONDS"
          ~doc:"Sampling period for $(b,--series) (default 1.0).")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a batch of registered experiments across domains, with JSONL, \
          CSV, metrics and time-series sinks.")
    Term.(
      const run $ all $ only_arg $ quick_arg $ batch_term $ metrics
      $ metrics_format $ series $ sample_dt)

let trace_cmd =
  let run only out filters level quick =
    (match Tracer.check_components filters with
    | Ok () -> ()
    | Error msg ->
        Printf.eprintf "mcc trace: %s\n" msg;
        exit 2);
    let entries = resolve_entries ~cmd:"trace" ~all:false ~only ~quick in
    let write, close = output_writer ~cmd:"trace" out in
    let components = if filters = [] then None else Some filters in
    (* Tracer sinks are domain-local, so the batch is forced onto this
       domain: jobs > 1 would silently lose every helper domain's
       stream. *)
    let sink = Tracer.jsonl ~min_level:level ?components write in
    let rows = Runner.run_batch ~jobs:1 entries in
    Tracer.remove sink;
    close ();
    Printf.eprintf "[traced %d experiment%s to %s]\n" (List.length rows)
      (if List.length rows = 1 then "" else "s")
      (if out = "-" then "stdout" else out)
  in
  let out =
    Arg.(
      value
      & opt string "-"
      & info [ "o"; "out" ] ~docv:"PATH"
          ~doc:"Trace destination; $(b,-) (default) writes to stdout.")
  in
  let filters =
    Arg.(
      value
      & opt (list string) []
      & info [ "filter" ] ~docv:"COMPONENT,..."
          ~doc:
            "Keep only these components and their dotted descendants \
             (e.g. $(b,sigma) matches $(b,sigma.router)).")
  in
  let level =
    let parse = function
      | "debug" -> Ok Tracer.Debug
      | "info" -> Ok Tracer.Info
      | "warn" -> Ok Tracer.Warn
      | s -> Error (`Msg (Printf.sprintf "unknown level %S (debug|info|warn)" s))
    in
    let print ppf l = Format.pp_print_string ppf (Tracer.level_name l) in
    Arg.(
      value
      & opt (conv (parse, print)) Tracer.Debug
      & info [ "level" ] ~docv:"LEVEL"
          ~doc:"Minimum severity: $(b,debug) (default), $(b,info), $(b,warn).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run experiments with structured event tracing enabled, writing \
          one JSON record per event.")
    Term.(const run $ only_arg $ out $ filters $ level $ quick_arg)

let matrix_cmd =
  let pick ~what ~str ~catalogue names =
    match names with
    | [] -> catalogue
    | names ->
        List.map
          (fun name ->
            match List.find_opt (fun k -> str k = name) catalogue with
            | Some k -> k
            | None ->
                Printf.eprintf "mcc matrix: unknown %s %S (choose from %s)\n"
                  what name
                  (String.concat ", " (List.map str catalogue));
                exit 2)
          names
  in
  let run quick seed duration attack_at attacks protocols defences out b =
    let reject fmt =
      Printf.ksprintf
        (fun msg ->
          Printf.eprintf "mcc matrix: %s\n" msg;
          exit 2)
        fmt
    in
    if not (Float.is_finite duration && duration > 0.) then
      reject "--duration must be finite and positive (got %g)" duration;
    if not (Float.is_finite attack_at && attack_at >= 0. && attack_at < duration)
    then
      reject
        "--attack-at must be finite, at least 0 and below --duration %g \
         (got %g)"
        duration attack_at;
    let attack_names = attacks and protocol_names = protocols
    and defence_names = defences in
    let attacks =
      pick ~what:"attack" ~str:Spec.attack_str
        ~catalogue:Mcc_attack.Matrix.default_attacks attacks
    in
    let protocols =
      pick ~what:"protocol" ~str:Spec.protocol_str
        ~catalogue:Spec.protocols protocols
    in
    let defences =
      pick ~what:"defence" ~str:Spec.defence_str
        ~catalogue:Spec.defences defences
    in
    let entries =
      Mcc_attack.Matrix.entries ~seed ~duration ~attack_at ~attacks ~protocols
        ~defences ()
      |> List.map (at_quick ~quick)
    in
    let sinks = open_sinks ~cmd:"matrix" ~pretty:false b in
    let selection names = match names with [] -> "all" | l -> String.concat "," l in
    drive ~kind:"matrix"
      ~label:
        (Printf.sprintf "%s/%s/%s" (selection attack_names)
           (selection protocol_names) (selection defence_names))
      ~noun:"matrix cell" b ~sinks
      ~finish:(fun rows ->
        let write, close = output_writer ~cmd:"matrix" out in
        write (Mcc_attack.Scorecard.to_string rows);
        close ())
      (fun () ->
        Mcc_attack.Matrix.run ~jobs:b.jobs ?sched:b.sched ~sinks
          ?on_progress:b.on_progress entries)
  in
  let list_opt names doc =
    Arg.(value & opt (list string) [] & info names ~docv:"NAME,..." ~doc)
  in
  let attacks =
    list_opt [ "attacks" ]
      "Attack strategies to run (default all): $(b,inflate), $(b,pulse), \
       $(b,guess), $(b,replay), $(b,churn), $(b,collude)."
  in
  let protocols =
    list_opt [ "protocols" ]
      "Protocols to attack (default all): $(b,flid), $(b,rlm), \
       $(b,replicated), $(b,oversub)."
  in
  let defences =
    list_opt [ "defences" ]
      "Defences to evaluate (default all): $(b,plain), $(b,delta), \
       $(b,delta+sigma), $(b,delta+sigma+ecn)."
  in
  let attack_at =
    Arg.(
      value
      & opt float Spec.default_adversary.Spec.attack_at
      & info [ "attack-at" ] ~docv:"SECONDS"
          ~doc:"Time at which every cell's adversary activates.")
  in
  let seed =
    Arg.(
      value
      & opt int Spec.default_adversary.Spec.seed
      & info [ "s"; "seed" ] ~docv:"SEED"
          ~doc:"Simulation seed; runs are deterministic per seed.")
  in
  let duration =
    Arg.(
      value
      & opt float Spec.default_adversary.Spec.duration
      & info [ "d"; "duration" ] ~docv:"SECONDS"
          ~doc:"Simulated duration of every cell, in seconds.")
  in
  let out =
    Arg.(
      value
      & opt string "-"
      & info [ "o"; "out" ] ~docv:"PATH"
          ~doc:
            "Markdown scorecard destination; $(b,-) (default) writes to \
             stdout.")
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:
         "Run the attack x protocol x defence evaluation matrix and render \
          the Markdown scorecard ranking defences per attack.")
    Term.(
      const run $ quick_arg $ seed $ duration $ attack_at $ attacks $ protocols
      $ defences $ out $ batch_term)

let profile_cmd =
  (* `mcc profile` accepts anything `mcc run --only` does, plus matrix
     cells — the interesting profiles are attack cells, which live in
     the matrix grid rather than the figure registry. *)
  let find_entry name =
    match Runner.lookup name with
    | Some e -> e
    | None -> (
        match
          List.find_opt
            (fun (e : Runner.entry) -> e.Runner.name = name)
            (Mcc_attack.Matrix.entries ())
        with
        | Some e -> e
        | None ->
            Printf.eprintf
              "mcc profile: unknown entry %S (try `mcc list`, or a matrix \
               cell such as matrix-inflate-flid-delta+sigma)\n"
              name;
            exit 2)
  in
  let sched_stats_section fmt (p : Profile.t) =
    match p.Profile.sched_stats with
    | None -> ()
    | Some s ->
        Format.fprintf fmt "@.## Scheduler backend (%s)@.@." p.Profile.sched;
        Format.fprintf fmt "| stat | value |@.|---|---|@.";
        let row name v = Format.fprintf fmt "| %s | %s |@." name v in
        row "events pushed" (string_of_int s.Profile.pushes);
        row "queue size high-water" (string_of_int s.Profile.max_size);
        row "capacity trajectory"
          (match s.Profile.capacities with
          | [] -> "(no growth)"
          | l -> String.concat " -> " (List.map string_of_int l));
        (match s.Profile.level_places with
        | [] -> ()
        | places ->
            row "placements per wheel level"
              (String.concat ", "
                 (List.mapi (fun i n -> Printf.sprintf "L%d:%d" i n) places));
            row "overflow placements" (string_of_int s.Profile.overflow);
            row "draining-tick inserts" (string_of_int s.Profile.drain_inserts);
            row "cell free-list hits / misses"
              (Printf.sprintf "%d / %d" s.Profile.free_hits
                 s.Profile.free_misses));
        row "timer-handle pool hits / misses"
          (Printf.sprintf "%d / %d" s.Profile.pool_hits s.Profile.pool_misses)
  in
  let run name sched quick out folded json_path no_ledger =
    let entry = at_quick ~quick (find_entry name) in
    let spec = entry.Runner.spec in
    let inst = Runner.run_spec_instrumented ?sched spec in
    let attack_at =
      match spec with
      | Spec.Attack p -> Some p.Spec.attack_at
      | Spec.Partial p -> Some p.Spec.attack_at
      | Spec.Adversary p -> Some p.Spec.attack_at
      | _ -> None
    in
    let containment_s =
      match inst.Runner.i_result with
      | E.Adversary r -> r.E.containment_s
      | _ -> None
    in
    let p = inst.Runner.i_profile in
    let buf = Buffer.create 4096 in
    let bfmt = Format.formatter_of_buffer buf in
    Format.fprintf bfmt "# Profile: %s (%s)@.@." entry.Runner.name
      (Spec.kind spec);
    Format.fprintf bfmt "spec: `%s`@.@." (Json.to_string (Spec.to_json spec));
    Format.fprintf bfmt
      "%d events in %.3f s wall (%.0f events/s) on the %s scheduler@.@."
      p.Profile.events p.Profile.wall_s p.Profile.events_per_sec
      p.Profile.sched;
    Format.fprintf bfmt "## Self time@.@.%s"
      (Mcc_obs.Prof.to_markdown ~wall_s:p.Profile.wall_s inst.Runner.i_prof);
    sched_stats_section bfmt p;
    Forensics.render_lineage ?attack_at ?containment_s bfmt
      inst.Runner.i_lineage;
    Format.pp_print_flush bfmt ();
    let write, close = output_writer ~cmd:"profile" out in
    write (Buffer.contents buf);
    close ();
    (match folded with
    | None -> ()
    | Some path ->
        let write, close = output_writer ~cmd:"profile" path in
        write (Mcc_obs.Prof.folded inst.Runner.i_prof);
        close ());
    (match json_path with
    | None -> ()
    | Some path ->
        let write, close = output_writer ~cmd:"profile" path in
        write
          (Json.to_string
             (Json.Obj
                [
                  ("name", Json.String entry.Runner.name);
                  ("kind", Json.String (Spec.kind spec));
                  ("spec", Spec.to_json spec);
                  ("prof", Mcc_obs.Prof.to_json inst.Runner.i_prof);
                  ("lineage", Mcc_obs.Lineage.to_json inst.Runner.i_lineage);
                  (* wall-clock fields stay last in the document *)
                  ("profile", Profile.to_json p);
                ])
          ^ "\n");
        close ());
    (* An instrumented run recorded as a one-row batch, with the
       self-profiler table joining the wall suffix. *)
    let row =
      {
        Runner.entry;
        result = inst.Runner.i_result;
        metrics = inst.Runner.i_metrics;
        series = [];
        profile = p;
      }
    in
    record_ledger ~no_ledger ~kind:"profile" ~label:entry.Runner.name
      ~payload:(Crossrun.run_payload ~command:"profile" ~config:[] [ row ])
      ~wall:
        (Crossrun.run_wall ~recorded:(Profile.now ()) [ row ]
        @ Crossrun.prof_wall inst.Runner.i_prof)
  in
  let entry_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ENTRY"
          ~doc:
            "Registry entry (see $(b,mcc list)) or matrix cell \
             ($(b,matrix-<attack>-<protocol>-<defence>)).")
  in
  let out =
    Arg.(
      value
      & opt string "-"
      & info [ "o"; "out" ] ~docv:"PATH"
          ~doc:"Markdown profile destination; $(b,-) (default) = stdout.")
  in
  let folded =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"PATH"
          ~doc:
            "Write folded stacks ($(b,component;child <self-us>) per line) \
             for flamegraph.pl, inferno or speedscope.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:
            "Write the whole profile — span tree, scheduler stats, packet \
             lineage — as one JSON document ($(b,mcc report --profile) \
             input).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one experiment under the engine self-profiler and packet \
          lineage, and render the component self-time table, scheduler \
          introspection and the containment critical path.")
    Term.(
      const run $ entry_arg $ sched_arg $ quick_arg $ out $ folded $ json
      $ no_ledger_arg)

let report_cmd =
  let read_lines path =
    match open_in path with
    | ic ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file ->
              close_in ic;
              List.rev acc
        in
        go []
    | exception Sys_error msg ->
        Printf.eprintf "mcc report: cannot open %s: %s\n" path msg;
        exit 2
  in
  let run series trace profile only width =
    let runs =
      match Forensics.parse_series_lines (read_lines series) with
      | Ok runs -> runs
      | Error msg ->
          Printf.eprintf "mcc report: %s: %s\n" series msg;
          exit 2
    in
    let trace_events =
      match trace with
      | None -> []
      | Some path -> (
          match Forensics.parse_trace_lines (read_lines path) with
          | Ok events -> events
          | Error msg ->
              Printf.eprintf "mcc report: %s: %s\n" path msg;
              exit 2)
    in
    let runs =
      match only with
      | [] -> runs
      | names ->
          List.filter
            (fun (r : Forensics.run) ->
              List.mem r.Forensics.name names
              || List.mem r.Forensics.group names)
            runs
    in
    if runs = [] then begin
      Printf.eprintf "mcc report: no sampled runs in %s%s\n" series
        (if only = [] then "" else " matching --only");
      exit 2
    end;
    List.iteri
      (fun i run ->
        if i > 0 then Format.fprintf fmt "@.---@.@.";
        Forensics.render ~width ~trace:trace_events fmt run)
      runs;
    (match profile with
    | None -> ()
    | Some path -> (
        match Json.of_string (String.concat "\n" (read_lines path)) with
        | Error msg ->
            Printf.eprintf "mcc report: %s: invalid JSON: %s\n" path msg;
            exit 2
        | Ok json -> (
            let attack_at =
              Option.bind
                (Option.bind (Json.member "spec" json)
                   (Json.member "attack_at"))
                Json.to_float_opt
            in
            let lineage =
              Option.value (Json.member "lineage" json) ~default:Json.Null
            in
            match Forensics.lineage_of_json lineage with
            | Error msg ->
                Printf.eprintf "mcc report: %s: %s\n" path msg;
                exit 2
            | Ok summary -> Forensics.render_lineage ?attack_at fmt summary)));
    Format.fprintf fmt "@."
  in
  let series =
    Arg.(
      required
      & opt (some string) None
      & info [ "series" ] ~docv:"PATH"
          ~doc:"Series JSONL written by $(b,mcc run --series).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Trace JSONL written by $(b,mcc trace); adds the key-failure \
             spans to the SIGMA timeline.")
  in
  let profile =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"PATH"
          ~doc:
            "Profile JSON written by $(b,mcc profile --json); appends the \
             per-hop containment-latency table and the containment \
             critical path.")
  in
  let width =
    Arg.(
      value & opt int 60
      & info [ "width" ] ~docv:"COLS"
          ~doc:"Sparkline width in characters (default 60).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render an attack-forensics report (sparklines, SIGMA timeline, \
          throughput recovery) from saved series and trace files, without \
          rerunning anything.")
    Term.(const run $ series $ trace $ profile $ only_arg $ width)

(* --- cross-run commands (ledger history + diffing) ---------------------- *)

let load_ledger ~cmd =
  let dir = Ledger.default_dir () in
  match Ledger.load ~dir with
  | Ok (entries, skipped) ->
      List.iter (Printf.eprintf "mcc %s: %s (line skipped)\n" cmd) skipped;
      (dir, entries)
  | Error msg ->
      Printf.eprintf "mcc %s: %s\n" cmd msg;
      exit 2

let history_cmd =
  let run kind label metric last width =
    let dir, entries = load_ledger ~cmd:"history" in
    let entries =
      List.filter
        (fun (e : Ledger.entry) ->
          (match kind with None -> true | Some k -> String.equal e.Ledger.kind k)
          && match label with
             | None -> true
             | Some l -> String.equal e.Ledger.label l)
        entries
    in
    let entries =
      match last with
      | None -> entries
      | Some n ->
          let len = List.length entries in
          List.filteri (fun i _ -> i >= len - n) entries
    in
    if entries = [] then
      Printf.eprintf "mcc history: no matching entries in %s\n"
        (Ledger.file ~dir)
    else print_string (Crossrun.history_table ?metric ~width entries)
  in
  let kind =
    Arg.(
      value
      & opt (some string) None
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            "Keep only entries of this kind: $(b,run), $(b,matrix), \
             $(b,profile), $(b,workload) or $(b,lint).")
  in
  let label =
    Arg.(
      value
      & opt (some string) None
      & info [ "label" ] ~docv:"LABEL"
          ~doc:
            "Keep only entries with this exact label (the recorded \
             selection, e.g. $(b,fig1)).")
  in
  let metric =
    Arg.(
      value
      & opt (some string) None
      & info [ "metric" ] ~docv:"NAME"
          ~doc:
            "Series for the value column and trend sparkline: a recorded \
             figure name, a wall field, or any summary/metrics key (e.g. \
             $(b,link.drops)).  Default $(b,events_per_sec).")
  in
  let last =
    Arg.(
      value
      & opt (some int) None
      & info [ "last" ] ~docv:"N" ~doc:"Keep only the N most recent entries.")
  in
  let width =
    Arg.(
      value & opt int 40
      & info [ "width" ] ~docv:"COLS"
          ~doc:"Trend sparkline width in characters (default 40).")
  in
  Cmd.v
    (Cmd.info "history"
       ~doc:
         "List run-ledger entries and render the trend of any figure or \
          metric across them.")
    Term.(const run $ kind $ label $ metric $ last $ width)

let diff_cmd =
  let resolve ~entries sel =
    if Sys.file_exists sel && not (Sys.is_directory sel) then begin
      let content =
        In_channel.with_open_bin sel In_channel.input_all
      in
      match Json.of_string (String.trim content) with
      | Error msg ->
          Printf.eprintf "mcc diff: %s: invalid JSON: %s\n" sel msg;
          exit 2
      | Ok json -> (
          match Ledger.entry_of_json json with
          | Ok e -> e
          | Error msg ->
              Printf.eprintf "mcc diff: %s: %s\n" sel msg;
              exit 2)
    end
    else
      let pick n =
        match
          List.find_opt (fun (e : Ledger.entry) -> e.Ledger.seq = n) entries
        with
        | Some e -> e
        | None ->
            Printf.eprintf "mcc diff: no ledger entry #%d\n" n;
            exit 2
      in
      let nth_last n =
        let len = List.length entries in
        if len < n then begin
          Printf.eprintf "mcc diff: ledger has only %d entries\n" len;
          exit 2
        end
        else List.nth entries (len - n)
      in
      match int_of_string_opt sel with
      | Some n -> pick n
      | None -> (
          match sel with
          | "last" -> nth_last 1
          | "prev" -> nth_last 2
          | _ ->
              Printf.eprintf
                "mcc diff: %S is neither a ledger seq, last/prev, nor a \
                 JSON file\n"
                sel;
              exit 2)
  in
  let run a b threshold =
    let _, entries = load_ledger ~cmd:"diff" in
    let ea = resolve ~entries a and eb = resolve ~entries b in
    let report = Crossrun.diff ~threshold ea eb in
    print_string report.Crossrun.rendering;
    if report.Crossrun.regressions <> [] then exit 1
  in
  let sel position docv older =
    Arg.(
      required
      & pos position (some string) None
      & info [] ~docv
          ~doc:
            (Printf.sprintf
               "The %s entry: a ledger sequence number, $(b,last)/$(b,prev), \
                or a JSON file holding one ledger entry."
               older))
  in
  let threshold =
    Arg.(
      value & opt float 0.05
      & info [ "threshold" ] ~docv:"FRACTION"
          ~doc:
            "Relative figure drop flagged as a regression (default 0.05); \
             any flagged figure makes the exit status 1.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two ledger entries (or JSON files): deterministic-field \
          drift, figure deltas with regression highlighting, and profiler \
          self-time drift.  Exits 1 when a figure regressed beyond the \
          threshold.")
    Term.(const run $ sel 0 "A" "older" $ sel 1 "B" "newer" $ threshold)

(* --- workload ----------------------------------------------------------- *)

(* Referencing Build.run links the Mcc_workload library into the
   binary, which registers the Spec.Workload implementation hook (and
   makes workload entries runnable by every other subcommand too). *)
let _workload_impl = Mcc_workload.Build.run

let workload_dir = "workloads"

let workload_files ~cmd ~all files =
  if all then
    match Sys.readdir workload_dir with
    | exception Sys_error msg ->
        Printf.eprintf "mcc workload %s: %s\n" cmd msg;
        exit 2
    | names ->
        let names = Array.to_list names in
        let jsons =
          List.filter (fun n -> Filename.check_suffix n ".json") names
        in
        List.map (Filename.concat workload_dir) (List.sort String.compare jsons)
  else
    match files with
    | [] ->
        Printf.eprintf
          "mcc workload %s: name workload files, or use --all for every file \
           under %s/\n"
          cmd workload_dir;
        exit 2
    | files -> files

let load_workload ~cmd path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
      Printf.eprintf "mcc workload %s: %s\n" cmd msg;
      exit 2
  | contents -> (
      match Json.of_string contents with
      | Error msg ->
          Printf.eprintf "mcc workload %s: %s: invalid JSON: %s\n" cmd path msg;
          exit 2
      | Ok json -> (
          match Mcc_workload.Schema.entries_of_json ~ctx:path json with
          | Error msg ->
              Printf.eprintf "mcc workload %s: %s\n" cmd msg;
              exit 2
          | Ok entries -> (contents, entries)))

let workload_all_arg =
  Arg.(
    value & flag
    & info [ "all" ]
        ~doc:
          (Printf.sprintf "Every $(b,*.json) under $(b,%s/), in name order."
             workload_dir))

let workload_file_pos =
  Arg.(value & pos_all string [] & info [] ~docv:"FILE")

let workload_run_cmd =
  let run file quick b =
    let contents, entries = load_workload ~cmd:"run" file in
    let entries = List.map (at_quick ~quick) entries in
    (* Like the matrix, workload output is a regression artefact that
       must be byte-identical for any --jobs and scheduler backend, so
       the nondeterministic wall-clock profile is dropped from every
       sink. *)
    let sinks =
      List.map
        (Sink.map (fun r -> { r with Sink.profile = None }))
        (open_sinks ~cmd:"workload run" ~pretty:true b)
    in
    drive ~kind:"workload" ~label:file
      ~config:
        [
          ("workload", Json.String file);
          (* Digest of the file bytes: `mcc diff` flags a ledger pair
             whose configs differ, so editing a workload file between
             runs surfaces as config drift. *)
          ( "workload_digest",
            Json.String (Ledger.digest_of_json (Json.String contents)) );
        ]
      ~noun:"workload run" b ~sinks
      (fun () ->
        Runner.run_batch ~jobs:b.jobs ?sched:b.sched ~sinks
          ?on_progress:b.on_progress entries)
  in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"The workload file to run.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run every entry of a declarative workload file (one per seed) \
          across domains.")
    Term.(const run $ file $ quick_arg $ batch_term)

let workload_check_cmd =
  let run all files =
    let files = workload_files ~cmd:"check" ~all files in
    let failures = ref 0 in
    List.iter
      (fun path ->
        match Mcc_workload.Schema.load ~path with
        | Ok entries ->
            Printf.printf "ok %s (%d run%s)\n" path (List.length entries)
              (if List.length entries = 1 then "" else "s")
        | Error msg ->
            incr failures;
            Printf.eprintf "%s\n" msg)
      files;
    if !failures > 0 then begin
      Printf.eprintf "mcc workload check: %d invalid file%s\n" !failures
        (if !failures = 1 then "" else "s");
      exit 2
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate workload files against the schema; exits non-zero with \
          file:field diagnostics on the first violation of each file.")
    Term.(const run $ workload_all_arg $ workload_file_pos)

let workload_list_cmd =
  let run all files =
    let files = workload_files ~cmd:"list" ~all files in
    List.iter
      (fun path ->
        let _, entries = load_workload ~cmd:"list" path in
        Printf.printf "%s\n" path;
        List.iter
          (fun (e : Runner.entry) ->
            Printf.printf "  %-32s %s\n" e.Runner.name e.Runner.doc)
          entries)
      files
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:"Show the runs each workload file expands to (one per seed).")
    Term.(const run $ workload_all_arg $ workload_file_pos)

let workload_cmd =
  Cmd.group
    (Cmd.info "workload"
       ~doc:
         "Declarative workloads: run, validate and list JSON workload files \
          (topology generators, churn and traffic models, optional attack).")
    [ workload_run_cmd; workload_check_cmd; workload_list_cmd ]

(* The invariant linter (Mcc_lint.Cli; `dune build @lint` runs it with
   --no-ledger).  It records in the run ledger by default, so lint
   drift shows up in `mcc history` and `mcc diff` next to perf drift. *)
let lint_cmd =
  let exit_nonzero code = if code <> 0 then exit code in
  Cmd.v
    (Mcc_lint.Cli.info ~name:"lint")
    Term.(const exit_nonzero $ Mcc_lint.Cli.term ~name:"mcc lint")

let main =
  Cmd.group
    (Cmd.info "mcc" ~version:Version.version
       ~doc:
         "Robust multicast congestion control: DELTA + SIGMA experiments \
          (Gorinsky et al.)")
    [
      run_cmd;
      trace_cmd;
      profile_cmd;
      report_cmd;
      history_cmd;
      diff_cmd;
      list_cmd;
      matrix_cmd;
      workload_cmd;
      lint_cmd;
    ]

let () = exit (Cmd.eval main)
