(* The linter's command-line surface, mounted as the `mcc lint`
   subcommand (which `dune build @lint` runs).  A run is recorded in the
   run ledger unless --no-ledger is given, so `mcc history` / `mcc diff`
   show lint drift alongside perf drift; CI loops and editor
   integrations opt out. *)

open Cmdliner
module Json = Mcc_obs.Json
module Ledger = Mcc_obs.Ledger
module Profile = Mcc_obs.Profile

let fmt = Format.std_formatter

(* --- report renderings --------------------------------------------------- *)

(* Minimal SARIF 2.1.0: a single run with the rule catalogue and one
   result per finding.  startColumn is 1-based in SARIF, findings carry
   compiler-style 0-based columns. *)
let sarif_of_report (r : Lint.report) =
  Json.Obj
    [
      ("version", Json.String "2.1.0");
      ( "$schema",
        Json.String "https://json.schemastore.org/sarif-2.1.0.json" );
      ( "runs",
        Json.List
          [
            Json.Obj
              [
                ( "tool",
                  Json.Obj
                    [
                      ( "driver",
                        Json.Obj
                          [
                            ("name", Json.String "mcc-lint");
                            ( "rules",
                              Json.List
                                (List.map
                                   (fun ru ->
                                     Json.Obj
                                       [
                                         ("id", Json.String (Lint.rule_id ru));
                                         ( "shortDescription",
                                           Json.Obj
                                             [
                                               ( "text",
                                                 Json.String (Lint.rule_doc ru)
                                               );
                                             ] );
                                       ])
                                   Lint.all_rules) );
                          ] );
                    ] );
                ( "results",
                  Json.List
                    (List.map
                       (fun (f : Lint.finding) ->
                         Json.Obj
                           [
                             ("ruleId", Json.String (Lint.rule_id f.rule));
                             ("level", Json.String "error");
                             ( "message",
                               Json.Obj [ ("text", Json.String f.message) ] );
                             ( "locations",
                               Json.List
                                 [
                                   Json.Obj
                                     [
                                       ( "physicalLocation",
                                         Json.Obj
                                           [
                                             ( "artifactLocation",
                                               Json.Obj
                                                 [
                                                   ( "uri",
                                                     Json.String f.file );
                                                 ] );
                                             ( "region",
                                               Json.Obj
                                                 [
                                                   ( "startLine",
                                                     Json.Int f.line );
                                                   ( "startColumn",
                                                     Json.Int (f.col + 1) );
                                                 ] );
                                           ] );
                                     ];
                                 ] );
                           ])
                       r.Lint.findings) );
              ];
          ] );
    ]

(* --- the ledger entry ---------------------------------------------------- *)

(* Payload in the Crossrun convention ("config" digested, "rows" with
   summary + metrics) so `mcc history --metric findings` and `mcc diff`
   work on lint entries unchanged.  The findings digest is a content
   hash of the sorted findings, so two lint runs drift exactly when
   their findings differ. *)
let ledger_payload ~paths ~enabled (r : Lint.report) =
  let findings_digest =
    Ledger.digest_of_json
      (Json.List
         (List.map
            (fun (f : Lint.finding) ->
              Json.List
                [
                  Json.String (Lint.rule_id f.rule);
                  Json.String f.file;
                  Json.Int f.line;
                  Json.Int f.col;
                  Json.String f.message;
                ])
            r.Lint.findings))
  in
  let rule_counts =
    List.map
      (fun ru ->
        ( Lint.rule_id ru,
          Json.Int
            (List.length
               (List.filter (fun (f : Lint.finding) -> f.rule = ru)
                  r.Lint.findings)) ))
      enabled
  in
  Json.Obj
    [
      ( "config",
        Json.Obj
          [
            ("command", Json.String "lint");
            ("paths", Json.List (List.map (fun p -> Json.String p) paths));
            ( "rules",
              Json.List
                (List.map (fun ru -> Json.String (Lint.rule_id ru)) enabled) );
          ] );
      ( "rows",
        Json.List
          [
            Json.Obj
              [
                ("name", Json.String "lint");
                ( "summary",
                  Json.Obj
                    [
                      ("findings", Json.Int (List.length r.Lint.findings));
                      ("errors", Json.Int (List.length r.Lint.errors));
                      ("files_checked", Json.Int r.Lint.files_checked);
                      ("cmts_loaded", Json.Int r.Lint.cmts_loaded);
                      ( "cmts_missing",
                        Json.Int (List.length r.Lint.cmts_missing) );
                      ("findings_digest", Json.String findings_digest);
                    ] );
                ("metrics", Json.Obj rule_counts);
              ];
          ] );
    ]

(* --- the command --------------------------------------------------------- *)

let run_lint ~name paths rules disable allow json sarif build_dir quiet
    list_rules no_ledger =
  if list_rules then begin
    List.iter
      (fun r ->
        Format.fprintf fmt "%-24s %s@." (Lint.rule_id r) (Lint.rule_doc r))
      Lint.all_rules;
    0
  end
  else begin
    let parse_rule id =
      match Lint.rule_of_id id with
      | Some r -> r
      | None ->
          Printf.eprintf "%s: unknown rule id %S (try --list-rules)\n" name id;
          exit 2
    in
    let enabled =
      let base =
        match rules with [] -> Lint.all_rules | ids -> List.map parse_rule ids
      in
      let off = List.map parse_rule disable in
      List.filter (fun r -> not (List.mem r off)) base
    in
    let allowlist =
      (* --allow names a file that must exist; with no flag the
         repo-root lint.allow is picked up when present. *)
      let path =
        match allow with
        | Some p -> Some p
        | None -> if Sys.file_exists "lint.allow" then Some "lint.allow" else None
      in
      match path with
      | None -> []
      | Some p -> (
          match Lint.load_allowlist p with
          | Ok entries -> entries
          | Error msg ->
              Printf.eprintf "%s: %s\n" name msg;
              exit 2)
    in
    let config = { Lint.rules = enabled; allowlist; build_dir } in
    let report, elapsed =
      Profile.with_wall_clock (fun () -> Lint.run config paths)
    in
    if not quiet then begin
      List.iter
        (fun f -> Format.fprintf fmt "%a@." Lint.pp_finding f)
        report.Lint.findings;
      List.iter
        (fun (file, msg) -> Format.fprintf fmt "%s: error: %s@." file msg)
        report.Lint.errors;
      List.iter
        (fun (file, reason) ->
          Format.fprintf fmt "%s: note: typed rules skipped (%s)@." file
            reason)
        report.Lint.cmts_missing;
      Format.fprintf fmt
        "%s: %d finding%s, %d error%s in %d files (%d .cmt%s loaded%s)@."
        name
        (List.length report.Lint.findings)
        (if List.length report.Lint.findings = 1 then "" else "s")
        (List.length report.Lint.errors)
        (if List.length report.Lint.errors = 1 then "" else "s")
        report.Lint.files_checked report.Lint.cmts_loaded
        (if report.Lint.cmts_loaded = 1 then "" else "s")
        (match List.length report.Lint.cmts_missing with
        | 0 -> ""
        | n -> Printf.sprintf ", %d missing" n)
    end;
    let write_doc path doc =
      let line = Json.to_string doc ^ "\n" in
      if String.equal path "-" then print_string line
      else
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc line)
    in
    (match json with
    | None -> ()
    | Some path -> write_doc path (Lint.report_to_json report));
    (match sarif with
    | None -> ()
    | Some path -> write_doc path (sarif_of_report report));
    if not no_ledger then begin
      (* Recording is telemetry: a ledger failure warns and never fails
         the lint run that produced the findings. *)
      let dir = Ledger.default_dir () in
      match
        Ledger.append ~dir ~kind:"lint" ~label:(String.concat "," paths)
          ~payload:(ledger_payload ~paths ~enabled report)
          ~wall:
            [
              ("recorded_unix_s", Json.Float (Profile.now ()));
              ("wall_s", Json.Float elapsed);
            ]
          ()
      with
      | Ok _ -> ()
      | Error msg -> Printf.eprintf "%s: ledger: %s (continuing)\n" name msg
    end;
    Lint.exit_code report
  end

let paths_arg =
  Arg.(
    value
    & pos_all string [ "lib" ]
    & info [] ~docv:"PATH"
        ~doc:"Files or directories to lint (default: $(b,lib)).")

let rules_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "rules"; "r" ] ~docv:"RULE,..."
        ~doc:"Run only these rules (default: all; see $(b,--list-rules)).")

let disable_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "disable" ] ~docv:"RULE,..." ~doc:"Disable these rules.")

let allow_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "allow" ] ~docv:"FILE"
        ~doc:
          "Allowlist file: one \"rule-id path\" pair per line, # comments, \
           trailing / for directory prefixes.  Default: $(b,lint.allow) in \
           the current directory, when present.")

let json_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "json" ] ~docv:"PATH"
        ~doc:
          "Write the findings report as one JSON document to $(docv) \
           ($(b,-) = stdout).")

let sarif_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "sarif" ] ~docv:"PATH"
        ~doc:
          "Write the findings as a SARIF 2.1.0 document to $(docv) \
           ($(b,-) = stdout), for code-scanning UIs.")

let build_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "build-dir" ] ~docv:"DIR"
        ~doc:
          "Where the typed rules look for .cmt files (default: \
           $(b,_build/default) when present, else the current directory).")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress human output.")

let list_rules_arg =
  Arg.(
    value & flag
    & info [ "list-rules" ] ~doc:"Print every rule id with its rationale.")

let no_ledger_arg =
  Arg.(
    value & flag
    & info [ "no-ledger" ]
        ~doc:
          "Do not record this invocation in the run ledger \
           ($(b,.mcc/ledger), overridable via $(b,MCC_LEDGER)).")

let term ~name =
  (* bound before the local open: Term also exports a (deprecated)
     [name], which would shadow the parameter inside Term.(...) *)
  let run = run_lint ~name in
  Term.(
    const run
    $ paths_arg $ rules_arg $ disable_arg $ allow_arg $ json_arg $ sarif_arg
    $ build_dir_arg $ quiet_arg $ list_rules_arg $ no_ledger_arg)

let man =
  [
    `S Manpage.s_description;
    `P
      "Two-stage static-analysis gate for the simulator's determinism and \
       domain-safety invariants.  The syntactic stage parses every .ml file \
       under the given paths with the compiler's own parser and rejects \
       host-clock reads, ambient randomness, module-level mutable state \
       shared across domains, polymorphic float comparison, GC-statistics \
       reads outside the observability layer, and missing interfaces.";
    `P
      "The typed stage loads each file's .cmt (dune's -bin-annot output) \
       and walks the Typedtree: $(b,domain-escape) flags mutable values \
       captured by closures passed to Domain.spawn / Domain.DLS.new_key, \
       $(b,hot-alloc) flags allocating expressions inside functions marked \
       [@hot], $(b,hot-poly-compare) flags comparisons there that the \
       compiler cannot specialise (they call caml_compare), and \
       $(b,registry-exhaustive) flags catch-all patterns \
       over Spec.protocol, so a new protocol fails to compile until \
       Spec.impl gives it a module.  A missing .cmt is \
       reported as a note and degrades that file to syntactic coverage — \
       it never fails the run.";
    `P
      "Suppress an individual finding with a pragma comment on the same \
       or preceding line: (* lint: allow rule-id — justification *), or \
       with an allowlist entry (see $(b,--allow)).";
    `S Manpage.s_exit_status;
    `P "0 on a clean tree, 1 when findings remain, 2 on parse errors.";
  ]

let info ~name =
  let doc =
    "static-analysis gate for the simulator's determinism and domain-safety \
     invariants"
  in
  Cmd.info name ~doc ~man
