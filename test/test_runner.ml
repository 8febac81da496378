(* Runner, registry and sink tests.

   The determinism test is the load-bearing one: a batch run with
   --jobs 4 must produce byte-identical JSONL/CSV to the same batch run
   serially, which is what makes the parallel runner safe to use for
   the paper's figures. *)

module E = Mcc_core.Experiments
module Json = Mcc_core.Json
module Report = Mcc_core.Report
module Runner = Mcc_core.Runner
module Sink = Mcc_core.Sink
module Spec = Mcc_core.Spec
module Flid = Mcc_mcast.Flid

(* A small mixed batch, short horizons: every spec kind that is cheap
   enough for the test suite, scaled to a few simulated seconds. *)
let small_batch () =
  List.map
    (fun (name, spec) ->
      { Runner.name; group = name; doc = name;
        spec = Spec.scale_time spec ~factor:0.1 })
    [
      ("attack", Spec.Attack { Spec.default_attack with Spec.mode = Flid.Plain });
      ("sweep2", Spec.Sweep { Spec.default_sweep with Spec.sessions = 2 });
      ( "conv",
        Spec.Convergence { Spec.default_convergence with Spec.mode = Flid.Plain }
      );
      ("ovh", Spec.Overhead { Spec.default_overhead with Spec.duration = 50. });
    ]

let capture_sinks ?sched ?on_progress ?progress_interval entries ~jobs =
  let jsonl = Buffer.create 4096 and csv = Buffer.create 4096 in
  ignore
    (Runner.run_batch ~jobs ?sched ?on_progress ?progress_interval
       ~sinks:[ Sink.jsonl (Buffer.add_string jsonl);
                Sink.csv (Buffer.add_string csv) ]
       entries);
  (Buffer.contents jsonl, Buffer.contents csv)

let contains ~needle haystack =
  let n = String.length needle in
  let rec find i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || find (i + 1))
  in
  find 0

(* The profile is the last jsonl field and its wall-clock members come
   after the deterministic ones, so cutting each line at "wall_s" leaves
   exactly the bytes that must match across job counts. *)
let scrub_wall_clock s =
  String.split_on_char '\n' s
  |> List.map (fun line ->
         let marker = "\"wall_s\"" in
         let m = String.length marker in
         let rec find i =
           if i + m > String.length line then line
           else if String.sub line i m = marker then String.sub line 0 i
           else find (i + 1)
         in
         find 0)
  |> String.concat "\n"

let test_parallel_determinism () =
  let entries = small_batch () in
  let j1, c1 = capture_sinks entries ~jobs:1 in
  let j4, c4 = capture_sinks entries ~jobs:4 in
  Alcotest.(check bool) "jsonl non-empty" true (String.length j1 > 0);
  Alcotest.(check string) "jsonl byte-identical, jobs 1 vs 4"
    (scrub_wall_clock j1) (scrub_wall_clock j4);
  Alcotest.(check string) "csv byte-identical, jobs 1 vs 4" c1 c4;
  Alcotest.(check int) "one jsonl line per entry" (List.length entries)
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' j1)));
  Alcotest.(check bool) "metrics on every line" true
    (List.for_all
       (fun l -> l = "" || contains ~needle:{|"metrics":{|} l)
       (String.split_on_char '\n' j1));
  Alcotest.(check bool) "profile on every line" true
    (List.for_all
       (fun l -> l = "" || contains ~needle:{|"profile":{|} l)
       (String.split_on_char '\n' j1))

(* Live telemetry must be pure observation: the progress callback only
   writes to its own channel (stderr in the CLI), so turning it on — at
   any job count, under either scheduler backend — cannot perturb a
   single sink byte beyond the wall-clock suffix.  A pathologically
   short sampling interval maximises monitor interleaving. *)
let test_telemetry_sink_determinism () =
  let entries = small_batch () in
  List.iter
    (fun (label, sched) ->
      (* The profile names its backend in the deterministic prefix, so
         the telemetry-off baseline is taken per backend. *)
      let baseline_j, baseline_c = capture_sinks entries ~jobs:1 ~sched in
      let baseline_j = scrub_wall_clock baseline_j in
      List.iter
        (fun jobs ->
          let samples = ref 0 in
          let j, c =
            capture_sinks entries ~jobs ~sched
              ~on_progress:(fun (_ : Mcc_obs.Progress.sample) -> incr samples)
              ~progress_interval:0.01
          in
          let tag = Printf.sprintf "%s jobs=%d" label jobs in
          Alcotest.(check bool) (tag ^ ": monitor sampled") true (!samples > 0);
          Alcotest.(check string)
            (tag ^ ": jsonl byte-identical with telemetry")
            baseline_j (scrub_wall_clock j);
          Alcotest.(check string)
            (tag ^ ": csv byte-identical with telemetry")
            baseline_c c)
        [ 1; 4 ])
    [
      ("heap", (module Mcc_engine.Scheduler.Heap : Mcc_engine.Scheduler.S));
      ("wheel", (module Mcc_engine.Scheduler.Wheel : Mcc_engine.Scheduler.S));
    ];
  (* The final sample fires even when the monitor never ticks. *)
  let finals = ref 0 in
  ignore
    (capture_sinks entries ~jobs:2 ~progress_interval:60.
       ~on_progress:(fun s ->
         if s.Mcc_obs.Progress.final then incr finals));
  Alcotest.(check int) "exactly one final sample" 1 !finals

(* run_batch rows carry the full per-run snapshot: an attack run drops
   packets at the bottleneck, executes events, and — Plain mode, no
   SIGMA agent — still lists the sigma counters, at zero. *)
let test_batch_metrics () =
  let entries =
    [ List.hd (small_batch ()) ]  (* the Plain-mode attack entry *)
  in
  match Runner.run_batch ~jobs:1 entries with
  | [ row ] ->
      let counter name =
        match List.assoc_opt name row.Runner.metrics with
        | Some (Mcc_obs.Metrics.Counter n) -> n
        | Some _ -> Alcotest.fail (name ^ " is not a counter")
        | None -> Alcotest.fail (name ^ " missing from snapshot")
      in
      Alcotest.(check bool) "events executed" true (counter "engine.events" > 0);
      Alcotest.(check bool) "bottleneck dropped" true (counter "link.drops" > 0);
      Alcotest.(check bool) "packets transmitted" true
        (counter "link.tx_packets" > 0);
      Alcotest.(check int) "no sigma traffic in Plain mode" 0
        (counter "sigma.subscriptions");
      Alcotest.(check bool) "profile counts the run" true
        (row.Runner.profile.Mcc_obs.Profile.events = counter "engine.events");
      Alcotest.(check bool) "queue capacity recorded" true
        (row.Runner.profile.Mcc_obs.Profile.queue_capacity > 0);
      (* The bracketing reset means none of the run's counts leak into
         the caller's registry. *)
      Alcotest.(check int) "registry left clean" 0
        (Mcc_obs.Metrics.counter_value
           (Mcc_obs.Metrics.counter "engine.events"))
  | rows -> Alcotest.fail (Printf.sprintf "expected 1 row, got %d" (List.length rows))

let test_run_specs_order () =
  (* Results come back in input order even when several domains race. *)
  let specs =
    List.map
      (fun sessions ->
        Spec.Sweep
          { Spec.default_sweep with
            Spec.seed = 11 + sessions; duration = 20.; sessions })
      [ 1; 2; 3 ]
  in
  let serial = Runner.run_specs ~jobs:1 specs in
  let parallel = Runner.run_specs ~jobs:3 specs in
  List.iteri
    (fun i (a, b) ->
      match (a, b) with
      | E.Sweep_point p, E.Sweep_point q ->
          Alcotest.(check int)
            (Printf.sprintf "slot %d sessions" i)
            p.E.sessions q.E.sessions;
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "slot %d average" i)
            p.E.average_kbps q.E.average_kbps
      | _ -> Alcotest.fail "unexpected result kind")
    (List.combine serial parallel)

(* Every registry entry must round-trip name -> spec -> run.  Abbreviated
   horizons keep this affordable; finite, sane summaries are the check. *)
let test_registry_roundtrip () =
  Alcotest.(check bool) "registry non-empty" true (List.length (Runner.all ()) > 50);
  List.iter
    (fun (e : Runner.entry) ->
      (match Runner.lookup e.Runner.name with
      | Some e' -> Alcotest.(check string) "lookup" e.Runner.name e'.Runner.name
      | None -> Alcotest.fail ("lookup failed for " ^ e.Runner.name));
      Alcotest.(check bool)
        (e.Runner.name ^ " in its group")
        true
        (List.exists
           (fun (g : Runner.entry) -> g.Runner.name = e.Runner.name)
           (Runner.find e.Runner.group)))
    (Runner.all ());
  (* Run one abbreviated representative of every group. *)
  List.iter
    (fun group ->
      let e = List.hd (Runner.find group) in
      let result =
        Runner.run_spec (Spec.scale_time e.Runner.spec ~factor:0.05)
      in
      let summary = Report.summary result in
      Alcotest.(check bool) (group ^ " summary non-empty") true (summary <> []);
      List.iter
        (fun (metric, v) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s finite" group metric)
            true (Float.is_finite v))
        summary)
    (Runner.groups ());
  (* Every window a study meters scales with its horizon, so at the
     --quick factor each throughput it reports is positive. *)
  List.iter
    (fun (e : Runner.entry) ->
      match e.Runner.spec with
      | Spec.Study _ ->
          List.iter
            (fun (metric, v) ->
              if String.ends_with ~suffix:"_kbps" metric then
                Alcotest.(check bool)
                  (Printf.sprintf "%s %s positive at factor 0.25" e.Runner.name
                     metric)
                  true (v > 0.))
            (Report.summary
               (Runner.run_spec (Spec.scale_time e.Runner.spec ~factor:0.25)))
      | _ -> ())
    (Runner.all ())

let test_registry_names_unique () =
  let names = List.map (fun (e : Runner.entry) -> e.Runner.name) (Runner.all ()) in
  let sorted = List.sort_uniq compare names in
  Alcotest.(check int) "no duplicate names" (List.length names)
    (List.length sorted)

(* --- sink well-formedness ---------------------------------------------- *)

let test_json_escaping () =
  Alcotest.(check string) "control chars"
    "\"a\\\"b\\\\c\\n\\t\\u0001\""
    (Json.to_string (Json.String "a\"b\\c\n\t\001"));
  Alcotest.(check string) "non-finite floats are null" "[null,null,1.5]"
    (Json.to_string
       (Json.List [ Json.Float Float.nan; Json.Float Float.infinity;
                    Json.Float 1.5 ]))

let test_jsonl_sink_shape () =
  let buf = Buffer.create 256 in
  let sink = Sink.jsonl (Buffer.add_string buf) in
  let record =
    { Sink.name = "na\"me,x"; group = "g";
      spec = Spec.Partial { Spec.default_partial with Spec.duration = 1. };
      result =
        E.Partial
          { E.protected_attacker_kbps = 1.; unprotected_attacker_kbps = 2.;
            honest_kbps = Float.nan };
      metrics = []; series = []; profile = None }
  in
  Sink.emit sink record;
  Sink.close sink;
  let line = Buffer.contents buf in
  Alcotest.(check bool) "newline-terminated" true
    (String.length line > 0 && line.[String.length line - 1] = '\n');
  Alcotest.(check bool) "quote escaped" true
    (let re = {|"name":"na\"me,x"|} in
     let rec find i =
       i + String.length re <= String.length line
       && (String.sub line i (String.length re) = re || find (i + 1))
     in
     find 0);
  Alcotest.(check bool) "nan serialised as null" true
    (let re = {|"honest_kbps":null|} in
     let rec find i =
       i + String.length re <= String.length line
       && (String.sub line i (String.length re) = re || find (i + 1))
     in
     find 0)

let test_csv_sink_shape () =
  let buf = Buffer.create 256 in
  let sink = Sink.csv (Buffer.add_string buf) in
  let record =
    { Sink.name = "a,b\"c"; group = "g";
      spec = Spec.Partial { Spec.default_partial with Spec.duration = 1. };
      result =
        E.Partial
          { E.protected_attacker_kbps = 1.25; unprotected_attacker_kbps = 2.;
            honest_kbps = 3. };
      metrics = []; series = []; profile = None }
  in
  Sink.emit sink record;
  Sink.close sink;
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))
  in
  Alcotest.(check string) "header first" "name,group,metric,value"
    (List.hd lines);
  (* RFC 4180: a field containing commas or quotes is quoted, quotes doubled. *)
  List.iter
    (fun l ->
      Alcotest.(check bool) (l ^ " quoted") true
        (String.length l > 9 && String.sub l 0 9 = "\"a,b\"\"c\",")
    )
    (List.tl lines);
  Alcotest.(check int) "one row per metric"
    (List.length (Report.summary record.Sink.result))
    (List.length (List.tl lines))

let suite =
  ( "runner",
    [
      Alcotest.test_case "registry names unique" `Quick
        test_registry_names_unique;
      Alcotest.test_case "json escaping" `Quick test_json_escaping;
      Alcotest.test_case "jsonl sink shape" `Quick test_jsonl_sink_shape;
      Alcotest.test_case "csv sink shape" `Quick test_csv_sink_shape;
      Alcotest.test_case "parallel determinism" `Slow test_parallel_determinism;
      Alcotest.test_case "telemetry leaves sinks untouched" `Slow
        test_telemetry_sink_determinism;
      Alcotest.test_case "batch metrics" `Slow test_batch_metrics;
      Alcotest.test_case "run_specs order" `Slow test_run_specs_order;
      Alcotest.test_case "registry round-trip" `Slow test_registry_roundtrip;
    ] )
