(* mcc_obs tests: metrics registry semantics, tracer filtering/sinks,
   profile rendering, and JSON escaping.

   These run against the library directly (no simulation) so every
   behaviour the instrumented components rely on — get-or-create
   handles, reset detachment, component-prefix filters —
   is pinned independently of the simulator. *)

module Json = Mcc_obs.Json
module Metrics = Mcc_obs.Metrics
module Profile = Mcc_obs.Profile
module Tracer = Mcc_obs.Tracer

let contains ~needle haystack =
  let n = String.length needle in
  let rec find i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || find (i + 1))
  in
  find 0

(* --- metrics ------------------------------------------------------------ *)

let test_counter_basics () =
  Metrics.reset ();
  let c = Metrics.counter "t.counter" in
  Alcotest.(check int) "starts at zero" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.incr c ~by:41;
  Alcotest.(check int) "incr accumulates" 42 (Metrics.counter_value c);
  (* get-or-create: a second fetch is the same handle *)
  Metrics.incr (Metrics.counter "t.counter");
  Alcotest.(check int) "same name, same handle" 43 (Metrics.counter_value c);
  Metrics.tick "t.counter" ~by:7;
  Alcotest.(check int) "tick reaches the handle" 50 (Metrics.counter_value c);
  Metrics.reset ()

let test_gauge_basics () =
  Metrics.reset ();
  let g = Metrics.gauge "t.gauge" in
  Metrics.set g 2.5;
  Metrics.set_gauge "t.gauge" 3.5;
  Alcotest.(check bool) "last set wins" true
    (List.assoc "t.gauge" (Metrics.snapshot ()) = Metrics.Gauge 3.5);
  Metrics.reset ()

let test_histogram_buckets () =
  Metrics.reset ();
  let h = Metrics.histogram "t.hist" ~bounds:[ 1.; 10.; 100. ] in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 5.; 50.; 500.; 5000. ];
  (match Metrics.snapshot () with
  | [ ("t.hist", Metrics.Histogram { bounds; buckets; observations; sum }) ] ->
      Alcotest.(check (list (float 0.))) "bounds" [ 1.; 10.; 100. ] bounds;
      (* <=1: {0.5, 1.0}; <=10: {5}; <=100: {50}; overflow: {500, 5000} *)
      Alcotest.(check (list int)) "buckets" [ 2; 1; 1; 2 ] buckets;
      Alcotest.(check int) "observations" 6 observations;
      Alcotest.(check (float 1e-9)) "sum" 5556.5 sum
  | _ -> Alcotest.fail "expected exactly one histogram in the snapshot");
  Metrics.reset ()

let test_kind_mismatch () =
  Metrics.reset ();
  ignore (Metrics.counter "t.kind");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Metrics: \"t.kind\" already registered with another kind")
    (fun () -> ignore (Metrics.gauge "t.kind"));
  Metrics.reset ()

let test_bad_bounds () =
  Metrics.reset ();
  let err =
    Invalid_argument "Metrics.histogram: bounds must be non-empty and ascending"
  in
  Alcotest.check_raises "empty bounds" err (fun () ->
      ignore (Metrics.histogram "t.empty" ~bounds:[]));
  Alcotest.check_raises "non-ascending bounds" err (fun () ->
      ignore (Metrics.histogram "t.desc" ~bounds:[ 2.; 1. ]));
  Metrics.reset ()

let test_snapshot_sorted_and_reset () =
  Metrics.reset ();
  Metrics.tick "z.last";
  Metrics.tick "a.first";
  Metrics.set_gauge "m.middle" 1.;
  Alcotest.(check (list string)) "snapshot sorted by name"
    [ "a.first"; "m.middle"; "z.last" ]
    (List.map fst (Metrics.snapshot ()));
  (* A handle fetched before reset mutates a detached record: it must
     not resurface in the next snapshot. *)
  let stale = Metrics.counter "z.last" in
  Metrics.reset ();
  Metrics.incr stale ~by:100;
  Alcotest.(check int) "registry empty after reset" 0
    (List.length (Metrics.snapshot ()));
  Alcotest.(check int) "fresh handle starts clean" 0
    (Metrics.counter_value (Metrics.counter "z.last"));
  Metrics.reset ()

(* Readers: a component registers the record its counters live in, and
   each snapshot adds what it reports to the named counters. *)
let test_readers () =
  Metrics.reset ();
  let c = Metrics.counter "t.read" in
  Metrics.incr c ~by:5;
  let a = ref 3 and b = ref 4 in
  let report r add = add "t.read" !r in
  Metrics.reader a report;
  Metrics.reader b report;
  Metrics.reader a (fun r add -> add "t.only_read" (10 * !r));
  let counter name =
    match List.assoc_opt name (Metrics.snapshot ()) with
    | Some (Metrics.Counter n) -> n
    | Some _ | None -> -1
  in
  Alcotest.(check int) "two readers summed with the handle" 12
    (counter "t.read");
  Alcotest.(check int) "a name only readers report" 30 (counter "t.only_read");
  a := 7;
  Alcotest.(check int) "a snapshot reads the live counts" 16
    (counter "t.read");
  Alcotest.(check int) "a second snapshot adds nothing" 16 (counter "t.read");
  Alcotest.(check int) "counter_value is the handle's own" 5
    (Metrics.counter_value c);
  Metrics.reset ();
  Alcotest.(check (list string)) "reset drops the readers" []
    (List.map fst (Metrics.snapshot ()));
  Metrics.set_gauge "t.gauge" 1.;
  Metrics.reader a (fun r add -> add "t.gauge" !r);
  Alcotest.check_raises "a reader reporting a gauge's name"
    (Invalid_argument "Metrics: \"t.gauge\" already registered with another kind")
    (fun () -> ignore (Metrics.snapshot ()));
  Metrics.reset ()

let test_values_json () =
  Metrics.reset ();
  Metrics.tick "t.c" ~by:3;
  Metrics.set_gauge "t.g" 1.5;
  Alcotest.(check string) "rendering"
    {|{"t.c":3,"t.g":1.5}|}
    (Json.to_string (Metrics.values_json (Metrics.snapshot ())));
  Metrics.reset ()

(* --- tracer ------------------------------------------------------------- *)

let emit_all () =
  let e ?level component event =
    Tracer.emit ?level ~sim_time:1. ~component ~event (fun () -> [])
  in
  e "link" "drop";
  e "sigma.router" "subscribe";
  e "sigma.router" "lockout" ~level:Tracer.Warn;
  e "flid.receiver" "level" ~level:Tracer.Debug

(* A sink that keeps the events it receives, oldest first. *)
let capture ?min_level ?components () =
  let events = ref [] in
  let sink =
    Tracer.install ?min_level ?components (fun r ->
        events := r.Tracer.event :: !events)
  in
  ((fun () -> List.rev !events), sink)

let test_tracer_component_filter () =
  Alcotest.(check bool) "disabled without sinks" false (Tracer.enabled ());
  let captured, sink = capture ~components:[ "sigma" ] () in
  Alcotest.(check bool) "enabled with a sink" true (Tracer.enabled ());
  emit_all ();
  Tracer.remove sink;
  Alcotest.(check bool) "disabled after remove" false (Tracer.enabled ());
  Alcotest.(check (list string)) "prefix matches dotted descendants"
    [ "subscribe"; "lockout" ] (captured ())

let test_tracer_level_filter () =
  let captured, sink = capture ~min_level:Tracer.Info () in
  emit_all ();
  Tracer.remove sink;
  Alcotest.(check (list string)) "debug suppressed"
    [ "drop"; "subscribe"; "lockout" ] (captured ())

let test_tracer_attr_thunk_laziness () =
  (* With no interested sink, the attribute closure must not run. *)
  let ran = ref false in
  Tracer.emit ~sim_time:0. ~component:"x" ~event:"e" (fun () ->
      ran := true;
      []);
  Alcotest.(check bool) "no sink, no thunk" false !ran;
  let _, sink = capture ~components:[ "other" ] () in
  Tracer.emit ~sim_time:0. ~component:"x" ~event:"e" (fun () ->
      ran := true;
      []);
  Tracer.remove sink;
  Alcotest.(check bool) "filtered out, no thunk" false !ran

let test_tracer_jsonl () =
  let buf = Buffer.create 256 in
  let sink = Tracer.jsonl ~components:[ "sigma.router" ] (Buffer.add_string buf) in
  Tracer.emit ~sim_time:2.5 ~component:"sigma.router" ~event:"subscribe"
    (fun () -> [ ("receiver", Json.Int 7); ("note", Json.String "a\"b") ]);
  Tracer.emit ~sim_time:3. ~component:"link" ~event:"drop" (fun () -> []);
  Tracer.remove sink;
  Alcotest.(check string) "one filtered, escaped line"
    ({|{"t":2.5,"level":"info","component":"sigma.router",|}
    ^ {|"event":"subscribe","attrs":{"receiver":7,"note":"a\"b"}}|} ^ "\n")
    (Buffer.contents buf)

let test_record_json_omits_empty_attrs () =
  let r =
    { Tracer.sim_time = 1.; level = Tracer.Warn; component = "c";
      event = "e"; attrs = [] }
  in
  Alcotest.(check string) "no attrs key"
    {|{"t":1,"level":"warn","component":"c","event":"e"}|}
    (Json.to_string (Tracer.record_json r))

(* --- profile ------------------------------------------------------------ *)

let test_profile_json_field_order () =
  let p =
    Profile.make ~sched:"wheel" ~events:100 ~queue_capacity:16 ~wall_s:0.5 ()
  in
  Alcotest.(check (float 1e-9)) "derived rate" 200. p.Profile.events_per_sec;
  let s = Json.to_string (Profile.to_json p) in
  (* The deterministic fields (sched included) must precede "wall_s"
     (the runner tests byte-compare jsonl lines truncated at that
     marker). *)
  Alcotest.(check string) "wall-clock fields last"
    {|{"sched":"wheel","events":100,"queue_capacity":16,"wall_s":0.5,"events_per_sec":200}|}
    s;
  Alcotest.(check string) "minor words after the wall clock"
    {|{"sched":"heap","events":1,"queue_capacity":2,"wall_s":0,"events_per_sec":0,"minor_words":42}|}
    (Json.to_string
       (Profile.to_json
          (Profile.make ~minor_words:42 ~events:1 ~queue_capacity:2 ~wall_s:0.
             ())));
  let (), _, words = Profile.measure (fun () -> ignore (Sys.opaque_identity (ref 0))) in
  Alcotest.(check bool) "measure counts minor words" true (words > 0);
  let z = Profile.make ~events:5 ~queue_capacity:4 ~wall_s:0. () in
  Alcotest.(check string) "default backend" "heap" z.Profile.sched;
  Alcotest.(check (float 0.)) "zero wall, zero rate" 0. z.Profile.events_per_sec

(* --- json escaping ------------------------------------------------------ *)

let test_escape_exhaustive_controls () =
  (* Every byte below 0x20 must render as a valid JSON escape. *)
  for b = 0 to 0x1f do
    let s = Json.to_string (Json.String (String.make 1 (Char.chr b))) in
    let expected =
      match Char.chr b with
      | '\b' -> {|"\b"|}
      | '\012' -> {|"\f"|}
      | '\n' -> {|"\n"|}
      | '\r' -> {|"\r"|}
      | '\t' -> {|"\t"|}
      | c -> Printf.sprintf {|"\u%04x"|} (Char.code c)
    in
    Alcotest.(check string) (Printf.sprintf "byte 0x%02x" b) expected s
  done;
  Alcotest.(check string) "quote and backslash"
    {|"a\"b\\c"|}
    (Json.to_string (Json.String {|a"b\c|}));
  Alcotest.(check string) "escape is the unquoted body"
    {|tab\there|} (Json.escape "tab\there")

let suite =
  ( "obs",
    [
      Alcotest.test_case "counter basics" `Quick test_counter_basics;
      Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
      Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
      Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
      Alcotest.test_case "bad histogram bounds" `Quick test_bad_bounds;
      Alcotest.test_case "snapshot sorted; reset detaches" `Quick
        test_snapshot_sorted_and_reset;
      Alcotest.test_case "readers summed into the snapshot" `Quick
        test_readers;
      Alcotest.test_case "values_json" `Quick test_values_json;
      Alcotest.test_case "tracer component filter" `Quick
        test_tracer_component_filter;
      Alcotest.test_case "tracer level filter" `Quick test_tracer_level_filter;
      Alcotest.test_case "tracer attr thunks lazy" `Quick
        test_tracer_attr_thunk_laziness;
      Alcotest.test_case "tracer jsonl sink" `Quick test_tracer_jsonl;
      Alcotest.test_case "record_json empty attrs" `Quick
        test_record_json_omits_empty_attrs;
      Alcotest.test_case "profile json field order" `Quick
        test_profile_json_field_order;
      Alcotest.test_case "json control-char escaping" `Quick
        test_escape_exhaustive_controls;
    ] )
