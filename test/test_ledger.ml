(* The cross-run observability layer: the append-only ledger
   (Mcc_obs.Ledger), the payload/history/diff conventions built on it
   (Mcc_core.Crossrun), and the OpenMetrics exposition of metric
   snapshots.  The load-bearing properties are the determinism rules —
   content-hash digests, wall-last rendering, zero diff drift for
   same-config runs — that make ledger entries comparable across
   invocations. *)

module Json = Mcc_obs.Json
module Ledger = Mcc_obs.Ledger
module Metrics = Mcc_obs.Metrics
module Crossrun = Mcc_core.Crossrun
module Runner = Mcc_core.Runner
module Spec = Mcc_core.Spec

let contains ~needle haystack =
  let n = String.length needle in
  let rec find i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || find (i + 1))
  in
  find 0

(* A fresh ledger directory per test case, so appends never see a
   previous case's entries. *)
let temp_counter = ref 0

let fresh_dir () =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcc-ledger-test-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  let file = Ledger.file ~dir in
  if Sys.file_exists file then Sys.remove file;
  dir

let config_payload sessions =
  Json.Obj
    [
      ( "config",
        Json.Obj
          [ ("command", Json.String "run"); ("sessions", Json.Int sessions) ] );
      ("rows", Json.List [ Json.Obj [ ("name", Json.String "fig1") ] ]);
    ]

let wall_suffix rate =
  [
    ("recorded_unix_s", Json.Float 1e9);
    ("wall_s", Json.Float 2.5);
    ("events_per_sec", Json.Float rate);
    ("figures", Json.Obj [ ("fig1", Json.Float rate) ]);
  ]

(* --- Ledger ------------------------------------------------------------ *)

let test_digest () =
  let j = config_payload 4 in
  let d = Ledger.digest_of_json j in
  Alcotest.(check int) "16 hex chars" 16 (String.length d);
  String.iter
    (fun c ->
      Alcotest.(check bool) "lowercase hex" true
        ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    d;
  Alcotest.(check string) "same tree, same digest" d
    (Ledger.digest_of_json (config_payload 4));
  Alcotest.(check bool) "different tree, different digest" true
    (d <> Ledger.digest_of_json (config_payload 5))

let test_append_load () =
  let dir = fresh_dir () in
  let append label rate =
    match
      Ledger.append ~dir ~kind:"run" ~label ~payload:(config_payload 4)
        ~wall:(wall_suffix rate) ()
    with
    | Ok e -> e
    | Error m -> Alcotest.failf "append failed: %s" m
  in
  let a = append "fig1" 100. in
  let b = append "fig1" 250. in
  Alcotest.(check int) "first entry is seq 1" 1 a.Ledger.seq;
  Alcotest.(check int) "second entry is seq 2" 2 b.Ledger.seq;
  Alcotest.(check string) "same config, same digest" a.Ledger.digest
    b.Ledger.digest;
  (match Ledger.load ~dir with
  | Ok ([ la; lb ], []) ->
      Alcotest.(check string) "kind round-trips" "run" la.Ledger.kind;
      Alcotest.(check string) "label round-trips" "fig1" la.Ledger.label;
      Alcotest.(check string) "digest round-trips" a.Ledger.digest
        la.Ledger.digest;
      Alcotest.(check string) "payload round-trips"
        (Json.to_string a.Ledger.payload)
        (Json.to_string la.Ledger.payload);
      Alcotest.(check (option (float 1e-9))) "wall round-trips" (Some 250.)
        (Option.bind
           (List.assoc_opt "events_per_sec" lb.Ledger.wall)
           Json.to_float_opt)
  | Ok (es, skipped) ->
      Alcotest.failf "expected 2 entries and no warning, got %d and %d"
        (List.length es) (List.length skipped)
  | Error m -> Alcotest.failf "load failed: %s" m);
  Alcotest.(check bool) "missing ledger loads as empty" true
    (Ledger.load ~dir:(dir ^ "-enoent") = Ok ([], []))

(* A write cut short leaves a last line that is no entry.  It costs only
   itself: load skips it with a warning naming the file and the line,
   and the next append follows the highest valid seq on a line of its
   own. *)
let test_truncated_line () =
  let dir = fresh_dir () in
  let append () =
    match
      Ledger.append ~dir ~kind:"run" ~label:"fig1" ~payload:(config_payload 4)
        ~wall:(wall_suffix 100.) ()
    with
    | Ok e -> e
    | Error m -> Alcotest.failf "append failed: %s" m
  in
  ignore (append ());
  ignore (append ());
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644
    (Ledger.file ~dir) (fun oc ->
      Out_channel.output_string oc {|{"seq":3,"kind":"run","lab|});
  let check_load what ~seqs =
    match Ledger.load ~dir with
    | Ok (entries, [ warning ]) ->
        Alcotest.(check (list int)) (what ^ ": valid entries load") seqs
          (List.map (fun (e : Ledger.entry) -> e.Ledger.seq) entries);
        Alcotest.(check bool)
          (Printf.sprintf "%s: warning %S names the file and line 3" what
             warning)
          true
          (contains ~needle:(Ledger.file ~dir ^ ": line 3: invalid JSON")
             warning)
    | Ok (_, skipped) ->
        Alcotest.failf "%s: expected one warning, got %d" what
          (List.length skipped)
    | Error m -> Alcotest.failf "%s: load failed: %s" what m
  in
  check_load "before append" ~seqs:[ 1; 2 ];
  Alcotest.(check int) "next entry follows the highest valid seq" 3
    (append ()).Ledger.seq;
  check_load "after append" ~seqs:[ 1; 2; 3 ]

let test_wall_renders_last () =
  let entry rate =
    {
      Ledger.seq = 1;
      kind = "run";
      label = "fig1";
      digest = "0123456789abcdef";
      payload = config_payload 4;
      wall = wall_suffix rate;
    }
  in
  let truncate_at_wall s =
    let marker = {|,"wall":|} in
    let m = String.length marker in
    let rec find i =
      if i + m > String.length s then
        Alcotest.failf "no wall object in %s" s
      else if String.sub s i m = marker then String.sub s 0 i
      else find (i + 1)
    in
    find 0
  in
  let a = Json.to_string (Ledger.entry_to_json (entry 100.)) in
  let b = Json.to_string (Ledger.entry_to_json (entry 999.)) in
  Alcotest.(check string)
    "deterministic prefix identical across wall clocks"
    (truncate_at_wall a) (truncate_at_wall b);
  Alcotest.(check bool) "wall is the last member" true
    (contains ~needle:{|"figures":{"fig1":999}}}|} b
    || contains ~needle:{|"figures":{"fig1":999.|} b);
  match Json.of_string a with
  | Error e -> Alcotest.failf "entry does not parse: %s" e
  | Ok j -> (
      match Ledger.entry_of_json j with
      | Error e -> Alcotest.failf "entry_of_json: %s" e
      | Ok e ->
          Alcotest.(check string) "JSON round-trip is exact" a
            (Json.to_string (Ledger.entry_to_json e)))

let test_default_dir () =
  let saved = Sys.getenv_opt "MCC_LEDGER" in
  let restore () =
    Unix.putenv "MCC_LEDGER" (Option.value saved ~default:"")
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "MCC_LEDGER" "/tmp/somewhere-else";
      Alcotest.(check string) "MCC_LEDGER wins" "/tmp/somewhere-else"
        (Ledger.default_dir ());
      Unix.putenv "MCC_LEDGER" "";
      Alcotest.(check string) "empty override falls back" ".mcc/ledger"
        (Ledger.default_dir ()))

(* --- Crossrun ---------------------------------------------------------- *)

let tiny_rows () =
  Runner.run_batch ~jobs:1
    [
      {
        Runner.name = "cell";
        group = "g";
        doc = "d";
        spec =
          Spec.Attack
            (let a = Spec.default_attack in
             { a with Spec.duration = a.Spec.duration *. 0.05 });
      };
    ]

let test_run_payload () =
  let rows = tiny_rows () in
  let payload =
    Crossrun.run_payload ~command:"run"
      ~config:[ ("quick", Json.Bool true) ]
      rows
  in
  let s = Json.to_string payload in
  Alcotest.(check bool) "config names the command" true
    (contains ~needle:{|"command":"run"|} s);
  Alcotest.(check bool) "caller config flags kept" true
    (contains ~needle:{|"quick":true|} s);
  Alcotest.(check bool) "entries carry the spec" true
    (contains ~needle:{|"spec":|} s);
  Alcotest.(check bool) "rows carry metrics" true
    (contains ~needle:{|"metrics":|} s);
  Alcotest.(check bool) "payload has no wall_s" false
    (contains ~needle:{|"wall_s"|} s);
  (* Two identical batches digest identically: the deterministic body
     really is free of host timing. *)
  Alcotest.(check string) "payload digest is reproducible"
    (Ledger.digest_of_json payload)
    (Ledger.digest_of_json
       (Crossrun.run_payload ~command:"run"
          ~config:[ ("quick", Json.Bool true) ]
          (tiny_rows ())));
  let wall = Crossrun.run_wall ~recorded:1e9 rows in
  Alcotest.(check bool) "wall has the recording time" true
    (List.mem_assoc "recorded_unix_s" wall);
  match List.assoc_opt "figures" wall with
  | Some (Json.Obj [ ("cell", Json.Float _) ]) -> ()
  | _ -> Alcotest.fail "figures must map each row to its events/s"

let test_find_value_and_history () =
  let entry seq rate =
    {
      Ledger.seq;
      kind = "run";
      label = "fig1";
      digest = "0123456789abcdef";
      payload = config_payload 4;
      wall = wall_suffix rate;
    }
  in
  let e = entry 1 100. in
  Alcotest.(check (option (float 1e-9))) "figures first" (Some 100.)
    (Crossrun.find_value e ~key:"fig1");
  Alcotest.(check (option (float 1e-9))) "wall fields next" (Some 2.5)
    (Crossrun.find_value e ~key:"wall_s");
  Alcotest.(check (option (float 1e-9))) "missing key" None
    (Crossrun.find_value e ~key:"nope");
  let table =
    Crossrun.history_table ~metric:"events_per_sec" ~width:20
      [ entry 1 100.; entry 2 150.; entry 3 250. ]
  in
  Alcotest.(check bool) "every entry listed" true
    (contains ~needle:"run" table
    && contains ~needle:"fig1" table
    && contains ~needle:"0123456789abcdef" table);
  Alcotest.(check bool) "trend block renders with >= 2 points" true
    (contains ~needle:"trend" table);
  let solo = Crossrun.history_table [ entry 1 100. ] in
  Alcotest.(check bool) "no trend for a single point" false
    (contains ~needle:"trend" solo)

let test_diff () =
  let entry rate =
    {
      Ledger.seq = 1;
      kind = "run";
      label = "fig1";
      digest = "0123456789abcdef";
      payload = config_payload 4;
      wall = wall_suffix rate;
    }
  in
  let same = Crossrun.diff (entry 100.) (entry 100.00001) in
  Alcotest.(check int) "same config: zero deterministic drift" 0
    same.Crossrun.drifted;
  Alcotest.(check int) "noise under threshold is no regression" 0
    (List.length same.Crossrun.regressions);
  (* A 50% throughput drop must be flagged. *)
  let slow = Crossrun.diff (entry 100.) (entry 50.) in
  (match slow.Crossrun.regressions with
  | [ r ] ->
      Alcotest.(check string) "the dropped figure" "fig1" r.Crossrun.key;
      Alcotest.(check bool) "pct is about -50%" true
        (match r.Crossrun.pct with
        | Some p -> Float.abs (p +. 0.5) < 1e-6
        | None -> false)
  | rs -> Alcotest.failf "expected 1 regression, got %d" (List.length rs));
  Alcotest.(check bool) "rendering flags it" true
    (contains ~needle:"REGRESSION" slow.Crossrun.rendering);
  (* An improvement is not a regression — figures are rates. *)
  let fast = Crossrun.diff (entry 100.) (entry 200.) in
  Alcotest.(check int) "speed-up is clean" 0
    (List.length fast.Crossrun.regressions);
  (* Payload drift is counted and the digest mismatch reported. *)
  let other =
    { (entry 100.) with Ledger.payload = config_payload 8; digest = "ffff" }
  in
  let drifted = Crossrun.diff (entry 100.) other in
  Alcotest.(check bool) "config change counts as drift" true
    (drifted.Crossrun.drifted > 0);
  Alcotest.(check bool) "digest drift named in rendering" true
    (contains ~needle:"DRIFT" drifted.Crossrun.rendering)

let test_standalone_document () =
  let full =
    Ledger.entry_to_json
      {
        Ledger.seq = 7;
        kind = "run";
        label = "fig1";
        digest = "0123456789abcdef";
        payload = config_payload 4;
        wall = wall_suffix 100.;
      }
  in
  (match Ledger.entry_of_json full with
  | Ok e ->
      Alcotest.(check int) "full entry kept as-is" 7 e.Ledger.seq;
      Alcotest.(check string) "kind kept" "run" e.Ledger.kind
  | Error m -> Alcotest.failf "full entry rejected: %s" m);
  match Ledger.entry_of_json (Json.String "nope") with
  | Ok _ -> Alcotest.fail "non-object document must be rejected"
  | Error _ -> ()

(* --- OpenMetrics -------------------------------------------------------- *)

let test_openmetrics () =
  let page =
    Metrics.openmetrics_page
      [
        ( [],
          [
            ("engine.events", Metrics.Counter 42);
            ("link.queue_depth", Metrics.Gauge 3.5);
            ( "sched.latency",
              Metrics.Histogram
                {
                  bounds = [ 1.; 2. ];
                  buckets = [ 3; 4; 5 ];
                  observations = 12;
                  sum = 18.5;
                } );
          ] );
      ]
  in
  Alcotest.(check bool) "counter gets _total and its value" true
    (contains ~needle:"# TYPE mcc_engine_events counter" page
    && contains ~needle:"mcc_engine_events_total 42" page);
  Alcotest.(check bool) "gauge family" true
    (contains ~needle:"# TYPE mcc_link_queue_depth gauge" page
    && contains ~needle:"mcc_link_queue_depth 3.5" page);
  Alcotest.(check bool) "histogram buckets are cumulative" true
    (contains ~needle:{|mcc_sched_latency_bucket{le="1"} 3|} page
    && contains ~needle:{|mcc_sched_latency_bucket{le="2"} 7|} page
    && contains ~needle:{|mcc_sched_latency_bucket{le="+Inf"} 12|} page
    && contains ~needle:"mcc_sched_latency_sum 18.5" page
    && contains ~needle:"mcc_sched_latency_count 12" page);
  Alcotest.(check bool) "every family has HELP" true
    (contains ~needle:"# HELP mcc_engine_events" page);
  let eof = "# EOF\n" in
  Alcotest.(check bool) "single trailing EOF marker" true
    (String.length page >= String.length eof
    && String.sub page
         (String.length page - String.length eof)
         (String.length eof)
       = eof);
  (* Labelled snapshots share one family declaration. *)
  let multi =
    Metrics.openmetrics_page
      [
        ([ ("run", "a\"b") ], [ ("engine.events", Metrics.Counter 1) ]);
        ([ ("run", "c") ], [ ("engine.events", Metrics.Counter 2) ]);
      ]
  in
  let count_sub needle s =
    let n = String.length needle in
    let rec go acc i =
      if i + n > String.length s then acc
      else if String.sub s i n = needle then go (acc + 1) (i + 1)
      else go acc (i + 1)
    in
    go 0 0
  in
  Alcotest.(check int) "family declared once across label sets" 1
    (count_sub "# TYPE mcc_engine_events counter" multi);
  Alcotest.(check bool) "label values escaped" true
    (contains ~needle:{|mcc_engine_events_total{run="a\"b"} 1|} multi
    && contains ~needle:{|mcc_engine_events_total{run="c"} 2|} multi)

let suite =
  ( "ledger",
    [
      Alcotest.test_case "digest is a content hash" `Quick test_digest;
      Alcotest.test_case "append/load round-trip" `Quick test_append_load;
      Alcotest.test_case "truncated line skipped" `Quick test_truncated_line;
      Alcotest.test_case "wall renders last" `Quick test_wall_renders_last;
      Alcotest.test_case "MCC_LEDGER override" `Quick test_default_dir;
      Alcotest.test_case "run payload convention" `Slow test_run_payload;
      Alcotest.test_case "find_value and history table" `Quick
        test_find_value_and_history;
      Alcotest.test_case "diff drift and regressions" `Quick test_diff;
      Alcotest.test_case "diff accepts standalone documents" `Quick
        test_standalone_document;
      Alcotest.test_case "openmetrics exposition" `Quick test_openmetrics;
    ] )
