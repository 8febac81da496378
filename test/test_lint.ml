(* The invariant linter, against the seeded fixtures under
   lint_fixtures/ (one violation per rule plus a pragma-suppressed
   twin) and, as a self-check, against the shipped library tree. *)

module Lint = Mcc_lint.Lint

let fixture name = Filename.concat "lint_fixtures" name

let config ?(allow = []) ?build_dir rules =
  { Lint.rules; allowlist = allow; build_dir }

let check ?allow rules file =
  match Lint.check_file (config ?allow rules) (fixture file) with
  | Ok findings -> findings
  | Error msg -> Alcotest.failf "%s: unexpected lint error: %s" file msg

let ids fs = List.map (fun (f : Lint.finding) -> Lint.rule_id f.rule) fs
let lines fs = List.map (fun (f : Lint.finding) -> f.line) fs

let exit_for rules files =
  Lint.exit_code
    (Lint.run (config rules) (List.map fixture files))

let test_wall_clock () =
  let fs = check [ Lint.Wall_clock ] "wall_clock.ml" in
  Alcotest.(check (list string)) "rule id"
    [ "wall-clock"; "wall-clock" ]
    (ids fs);
  Alcotest.(check (list int)) "clock read and sleep, twins suppressed" [ 3; 6 ]
    (lines fs);
  Alcotest.(check int) "exit 1" 1 (exit_for [ Lint.Wall_clock ] [ "wall_clock.ml" ])

let test_ambient_random () =
  let fs = check [ Lint.Ambient_randomness ] "ambient_random.ml" in
  Alcotest.(check (list string)) "rule id" [ "ambient-randomness" ] (ids fs);
  Alcotest.(check (list int)) "self_init flagged, Random.State clean" [ 4 ]
    (lines fs);
  Alcotest.(check int) "exit 1" 1
    (exit_for [ Lint.Ambient_randomness ] [ "ambient_random.ml" ])

let test_shared_toplevel () =
  let fs = check [ Lint.Shared_mutable_toplevel ] "shared_toplevel.ml" in
  Alcotest.(check (list string)) "rule id" [ "shared-mutable-toplevel" ] (ids fs);
  Alcotest.(check (list int))
    "module-level Hashtbl flagged; twin, functions clean" [ 2 ] (lines fs);
  Alcotest.(check int) "exit 1" 1
    (exit_for [ Lint.Shared_mutable_toplevel ] [ "shared_toplevel.ml" ])

let test_float_compare () =
  let fs = check [ Lint.Float_poly_compare ] "float_compare.ml" in
  Alcotest.(check (list string)) "rule ids"
    [ "float-poly-compare"; "float-poly-compare" ]
    (ids fs);
  Alcotest.(check (list int)) "float = and bare compare; twin suppressed"
    [ 2; 3 ] (lines fs);
  Alcotest.(check int) "exit 1" 1
    (exit_for [ Lint.Float_poly_compare ] [ "float_compare.ml" ])

let test_mli_coverage () =
  let fs = check [ Lint.Mli_coverage ] "no_mli.ml" in
  Alcotest.(check (list string)) "rule id" [ "mli-coverage" ] (ids fs);
  Alcotest.(check (list int)) "attached to line 1" [ 1 ] (lines fs);
  Alcotest.(check (list int)) "line-1 pragma suppresses" []
    (lines (check [ Lint.Mli_coverage ] "no_mli_suppressed.ml"));
  Alcotest.(check (list int)) "sibling .mli satisfies" []
    (lines (check [ Lint.Mli_coverage ] "clean.ml"));
  Alcotest.(check int) "exit 1" 1
    (exit_for [ Lint.Mli_coverage ] [ "no_mli.ml" ])

let test_prof_span () =
  let fs = check [ Lint.Prof_span ] "prof_span_bad.ml" in
  Alcotest.(check (list string)) "rule ids"
    [ "prof-span"; "prof-span" ]
    (ids fs);
  Alcotest.(check (list int)) "span sites outside lib/ flagged; twin suppressed"
    [ 4; 5 ] (lines fs);
  Alcotest.(check int) "exit 1" 1
    (exit_for [ Lint.Prof_span ] [ "prof_span_bad.ml" ])

let test_exit_codes () =
  Alcotest.(check int) "clean file exits 0" 0
    (exit_for Lint.all_rules [ "clean.ml" ]);
  let report = Lint.run (config Lint.all_rules) [ fixture "parse_error.ml" ] in
  Alcotest.(check int) "syntax error exits 2" 2 (Lint.exit_code report);
  Alcotest.(check bool) "error names the file" true
    (List.exists
       (fun (file, _) -> file = fixture "parse_error.ml")
       report.Lint.errors);
  let missing = Lint.run (config Lint.all_rules) [ "lint_fixtures/enoent.ml" ] in
  Alcotest.(check int) "missing path exits 2" 2 (Lint.exit_code missing)

let test_allowlist () =
  let allow text =
    match Lint.parse_allowlist text with
    | Ok entries -> entries
    | Error msg -> Alcotest.failf "allowlist: %s" msg
  in
  Alcotest.(check (list int)) "exact-path entry suppresses" []
    (lines
       (check
          ~allow:(allow "mli-coverage lint_fixtures/no_mli.ml")
          [ Lint.Mli_coverage ] "no_mli.ml"));
  Alcotest.(check (list int)) "directory-prefix entry suppresses" []
    (lines
       (check
          ~allow:(allow "# a comment\nmli-coverage lint_fixtures/\n")
          [ Lint.Mli_coverage ] "no_mli.ml"));
  Alcotest.(check (list int)) "other-rule entry does not" [ 1 ]
    (lines
       (check
          ~allow:(allow "wall-clock lint_fixtures/no_mli.ml")
          [ Lint.Mli_coverage ] "no_mli.ml"));
  (match Lint.parse_allowlist "bogus-rule lib/" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown rule id must be rejected");
  (* Dot-segment normalisation: a finding reached via "../" still
     matches an allowlist entry written repo-root-relative. *)
  let via_dotdot =
    match
      Lint.check_file
        (config
           ~allow:(allow "mli-coverage test/lint_fixtures/no_mli.ml")
           [ Lint.Mli_coverage ])
        "../test/lint_fixtures/no_mli.ml"
    with
    | Ok fs -> fs
    | Error msg -> Alcotest.failf "unexpected: %s" msg
  in
  Alcotest.(check (list int)) "../-relative finding matches root entry" []
    (lines via_dotdot)

let test_gc_stats () =
  let fs = check [ Lint.Gc_stats ] "gc_stats.ml" in
  Alcotest.(check (list string)) "rule id" [ "gc-stats" ] (ids fs);
  Alcotest.(check (list int)) "GC read flagged, pragma twin clean" [ 2 ]
    (lines fs);
  (* The same probe under lib/obs/ is the sanctioned telemetry home.
     Run from the repository root, that is the real lib/obs/, so the
     probe and the directories made for it go however the check ends. *)
  let dir = Filename.concat "lib" "obs" in
  let made = List.filter (fun d -> not (Sys.file_exists d)) [ "lib"; dir ] in
  List.iter (fun d -> Sys.mkdir d 0o755) made;
  let exempt = Filename.concat dir "gc_probe.ml" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists exempt then Sys.remove exempt;
      List.iter Sys.rmdir (List.rev made))
    (fun () ->
      let oc = open_out exempt in
      output_string oc "let heat () = Gc.minor_words ()\n";
      close_out oc;
      match Lint.check_file (config [ Lint.Gc_stats ]) exempt with
      | Ok fs -> Alcotest.(check (list int)) "lib/obs is exempt" [] (lines fs)
      | Error msg -> Alcotest.failf "lib/obs probe: %s" msg)

(* Typed-rule fixtures live in a compiled sub-library; the .cmts land
   under _build/default, which is ".." from the test's cwd. *)
let typed_check rules file =
  let report =
    Lint.run (config ~build_dir:".." rules) [ fixture ("typed/" ^ file) ]
  in
  Alcotest.(check (list (pair string string)))
    (file ^ ": no read errors") [] report.Lint.errors;
  Alcotest.(check (list (pair string string)))
    (file ^ ": cmt found") [] report.Lint.cmts_missing;
  Alcotest.(check int) (file ^ ": one cmt loaded") 1 report.Lint.cmts_loaded;
  report.Lint.findings

let test_domain_escape () =
  let fs = typed_check [ Lint.Domain_escape ] "domain_escape_bad.ml" in
  Alcotest.(check (list string)) "rule id" [ "domain-escape" ] (ids fs);
  Alcotest.(check (list int)) "capture flagged at its use site" [ 4 ]
    (lines fs);
  Alcotest.(check (list int)) "atomics and DLS initialisers clean" []
    (lines (typed_check [ Lint.Domain_escape ] "domain_escape_ok.ml"))

let test_hot_alloc () =
  let fs = typed_check [ Lint.Hot_alloc ] "hot_alloc_bad.ml" in
  Alcotest.(check (list string)) "rule id" [ "hot-alloc" ] (ids fs);
  Alcotest.(check (list int)) "tuple in [@hot] body flagged" [ 2 ] (lines fs);
  Alcotest.(check (list int)) "non-hot allocator out of scope" []
    (lines (typed_check [ Lint.Hot_alloc ] "hot_alloc_ok.ml"))

let test_hot_poly_compare () =
  let fs = typed_check [ Lint.Hot_poly_compare ] "hot_poly_compare_bad.ml" in
  Alcotest.(check (list string)) "rule ids"
    (List.init 4 (fun _ -> "hot-poly-compare"))
    (ids fs);
  Alcotest.(check (list int))
    "type variable, option, min and tuple flagged; twin suppressed"
    [ 2; 3; 4; 5 ] (lines fs);
  Alcotest.(check (list int))
    "specialised operands, abbreviations, other units, constants clean" []
    (lines (typed_check [ Lint.Hot_poly_compare ] "hot_poly_compare_ok.ml"))

let test_registry_exhaustive () =
  let fs = typed_check [ Lint.Registry_exhaustive ] "registry_bad.ml" in
  Alcotest.(check (list string)) "rule id" [ "registry-exhaustive" ] (ids fs);
  Alcotest.(check (list int)) "catch-all over the registry flagged" [ 3 ]
    (lines fs);
  Alcotest.(check (list int)) "all-constructor match clean" []
    (lines (typed_check [ Lint.Registry_exhaustive ] "registry_ok.ml"))

let test_missing_cmt () =
  let probe = "typed_probe_no_cmt.ml" in
  let report =
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists probe then Sys.remove probe)
      (fun () ->
        let oc = open_out probe in
        output_string oc "let x = ref 0\n";
        close_out oc;
        Lint.run (config ~build_dir:".." [ Lint.Domain_escape ]) [ probe ])
  in
  Alcotest.(check int) "degrades without findings" 0
    (List.length report.Lint.findings);
  Alcotest.(check int) "still exits clean" 0 (Lint.exit_code report);
  Alcotest.(check bool) "reports the missing cmt" true
    (List.mem_assoc probe report.Lint.cmts_missing)

let test_json_report () =
  let report = Lint.run (config Lint.all_rules) [ fixture "no_mli.ml" ] in
  let rendered = Mcc_obs.Json.to_string (Lint.report_to_json report) in
  match Mcc_obs.Json.of_string rendered with
  | Error e -> Alcotest.failf "report is not valid JSON: %s" e
  | Ok json ->
      let member k = Mcc_obs.Json.member k json in
      Alcotest.(check bool) "has findings array" true
        (match member "findings" with
        | Some (Mcc_obs.Json.List (_ :: _)) -> true
        | _ -> false);
      Alcotest.(check (option string)) "tool name" (Some "mcc-lint")
        (Option.bind (member "tool") Mcc_obs.Json.to_string_opt)

(* The acceptance bar of the lint gate itself: the shipped library tree
   must be clean with no allowlist at all (suppressions in lib/ are
   in-source pragmas with justifications). *)
let test_self_check_lib () =
  let report = Lint.run (config ~build_dir:".." Lint.all_rules) [ "../lib" ] in
  List.iter
    (fun f -> Format.eprintf "%a@." Lint.pp_finding f)
    report.Lint.findings;
  Alcotest.(check int) "no findings in lib/" 0
    (List.length report.Lint.findings);
  Alcotest.(check (list (pair string string))) "no errors" []
    report.Lint.errors;
  Alcotest.(check bool) "walked the whole library tree" true
    (report.Lint.files_checked > 50);
  (* The typed stage must have genuinely run: every lib module compiles,
     so every file should resolve to a .cmt. *)
  Alcotest.(check (list (pair string string))) "no cmts missing" []
    report.Lint.cmts_missing;
  Alcotest.(check bool) "typed stage covered the tree" true
    (report.Lint.cmts_loaded > 50)

let suite =
  ( "lint",
    [
      Alcotest.test_case "wall-clock fixture" `Quick test_wall_clock;
      Alcotest.test_case "ambient-randomness fixture" `Quick test_ambient_random;
      Alcotest.test_case "shared-mutable-toplevel fixture" `Quick
        test_shared_toplevel;
      Alcotest.test_case "float-poly-compare fixture" `Quick test_float_compare;
      Alcotest.test_case "mli-coverage fixture" `Quick test_mli_coverage;
      Alcotest.test_case "prof-span fixture" `Quick test_prof_span;
      Alcotest.test_case "gc-stats fixture" `Quick test_gc_stats;
      Alcotest.test_case "domain-escape fixture" `Quick test_domain_escape;
      Alcotest.test_case "hot-alloc fixture" `Quick test_hot_alloc;
      Alcotest.test_case "hot-poly-compare fixture" `Quick test_hot_poly_compare;
      Alcotest.test_case "registry-exhaustive fixture" `Quick
        test_registry_exhaustive;
      Alcotest.test_case "missing .cmt degrades gracefully" `Quick
        test_missing_cmt;
      Alcotest.test_case "exit codes" `Quick test_exit_codes;
      Alcotest.test_case "allowlist" `Quick test_allowlist;
      Alcotest.test_case "json report" `Quick test_json_report;
      Alcotest.test_case "self-check: lib/ is clean" `Quick test_self_check_lib;
    ] )
