(* Time-series telemetry tests: the Timeseries sampler, the Sim-driven
   periodic tick, the series JSONL sink's parallel determinism, the JSON
   parser round-trip, the tracer's dotted-boundary matching, and the
   forensics sparkline/report parsing.

   The determinism test is the load-bearing one: sampled series are part
   of a run's output, so --jobs 4 must produce byte-identical series
   JSONL to a serial run. *)

module Forensics = Mcc_core.Forensics
module Json = Mcc_core.Json
module Metrics = Mcc_obs.Metrics
module Runner = Mcc_core.Runner
module Sim = Mcc_engine.Sim
module Sink = Mcc_core.Sink
module Spec = Mcc_core.Spec
module Timeseries = Mcc_obs.Timeseries
module Tracer = Mcc_obs.Tracer
module Flid = Mcc_mcast.Flid

let with_sampling ~dt f =
  Timeseries.enable ~dt ();
  Fun.protect ~finally:Timeseries.disable f

(* --- sampler semantics -------------------------------------------------- *)

let test_disabled_noop () =
  Alcotest.(check bool) "disabled" false (Timeseries.enabled ());
  Timeseries.sample_gauge "g" (fun () -> 1.);
  Timeseries.record "e" ~time:0. ~value:1.;
  Timeseries.sample_all ~time:0.;
  Alcotest.(check (list (pair string (list (pair (float 0.) (float 0.))))))
    "nothing recorded" [] (Timeseries.snapshot ());
  Alcotest.(check (option (float 0.))) "no dt" None (Timeseries.dt ())

let test_gauge_and_rate () =
  with_sampling ~dt:1. (fun () ->
      Alcotest.(check (option (float 0.))) "dt" (Some 1.) (Timeseries.dt ());
      let level = ref 2. and total = ref 1000. in
      Timeseries.sample_gauge "level" (fun () -> !level);
      (* The rate baseline is the reading at registration: the first tick
         must report the growth since then, not since zero. *)
      Timeseries.sample_rate ~scale:0.008 "kbps" (fun () -> !total);
      Timeseries.sample_all ~time:0.;
      level := 5.;
      total := !total +. 125_000.;
      Timeseries.sample_all ~time:1.;
      match Timeseries.snapshot () with
      | [ ("kbps", kbps); ("level", lvl) ] ->
          Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
            "gauge points" [ (0., 2.); (1., 5.) ] lvl;
          Alcotest.(check (list (pair (float 1e-9) (float 1e-6))))
            "rate points (kbit/s)" [ (0., 0.); (1., 1000.) ] kbps
      | other ->
          Alcotest.fail
            (Printf.sprintf "unexpected snapshot of %d series"
               (List.length other)))

let test_name_collision_suffix () =
  with_sampling ~dt:1. (fun () ->
      Timeseries.sample_gauge "q" (fun () -> 1.);
      Timeseries.sample_gauge "q" (fun () -> 2.);
      Timeseries.sample_gauge "q" (fun () -> 3.);
      Timeseries.sample_all ~time:0.;
      Alcotest.(check (list string)) "suffixed names" [ "q"; "q#2"; "q#3" ]
        (List.map fst (Timeseries.snapshot ()));
      (* [reset] forgets the names, and so does [disable]: the next "q"
         is "q" again, not "q#4". *)
      let register_q_again () =
        Timeseries.sample_gauge "q" (fun () -> 4.);
        Timeseries.sample_all ~time:1.;
        List.map fst (Timeseries.snapshot ())
      in
      Timeseries.reset ();
      Alcotest.(check (list string)) "after reset" [ "q" ] (register_q_again ());
      Timeseries.disable ();
      Timeseries.enable ~dt:1. ();
      Alcotest.(check (list string)) "after disable and enable" [ "q" ]
        (register_q_again ()))

(* Every series keeps at most 65536 samples. *)
let test_bounded_series () =
  with_sampling ~dt:1. (fun () ->
      Timeseries.sample_gauge "g" (fun () -> 0.);
      for i = 0 to 65536 + 6 do
        Timeseries.sample_all ~time:(float_of_int i)
      done;
      (match Timeseries.snapshot () with
      | [ ("g", points) ] ->
          Alcotest.(check int) "capped at 65536" 65536 (List.length points)
      | _ -> Alcotest.fail "expected one series");
      Alcotest.(check int) "dropped counted" 7 (Timeseries.dropped ()))

let test_record_and_reset () =
  with_sampling ~dt:1. (fun () ->
      Timeseries.record "evictions" ~time:2.5 ~value:4.;
      Timeseries.record "evictions" ~time:7.5 ~value:6.;
      (match Timeseries.snapshot () with
      | [ ("evictions", points) ] ->
          Alcotest.(check (list (pair (float 0.) (float 0.))))
            "event points" [ (2.5, 4.); (7.5, 6.) ] points
      | _ -> Alcotest.fail "expected one series");
      Timeseries.reset ();
      Alcotest.(check bool) "still enabled" true (Timeseries.enabled ());
      Alcotest.(check int) "series cleared" 0
        (List.length (Timeseries.snapshot ())))

let test_enable_validation () =
  Alcotest.check_raises "dt zero"
    (Invalid_argument "Timeseries.enable: dt must be finite and positive")
    (fun () -> Timeseries.enable ~dt:0. ());
  Alcotest.(check bool) "still disabled" false (Timeseries.enabled ())

(* The engine end of the contract: Sim.create installs the sampling tick
   when the domain has sampling enabled, at simulated times 0, dt, 2dt... *)
let test_sim_tick () =
  with_sampling ~dt:0.5 (fun () ->
      let sim = Sim.create () in
      let v = ref 0. in
      Timeseries.sample_gauge "v" (fun () -> !v);
      ignore (Sim.schedule sim ~at:0.75 (fun () -> v := 1.));
      Sim.run_until sim 2.25;
      match Timeseries.snapshot () with
      | [ ("v", points) ] ->
          Alcotest.(check (list (pair (float 1e-9) (float 0.))))
            "sampled on the simulated clock"
            [ (0., 0.); (0.5, 0.); (1., 1.); (1.5, 1.); (2., 1.) ]
            points
      | _ -> Alcotest.fail "expected one series")

(* --- exponential_bounds ------------------------------------------------- *)

let test_exponential_bounds () =
  Alcotest.(check (list (float 0.))) "base 1"
    [ 1.; 2.; 4.; 8.; 16. ]
    (Metrics.exponential_bounds ~base:1. ~count:5);
  Alcotest.(check (list (float 0.))) "base 10"
    [ 10.; 20.; 40.; 80.; 160.; 320.; 640.; 1280. ]
    (Metrics.exponential_bounds ~base:10. ~count:8);
  Alcotest.check_raises "count zero"
    (Invalid_argument "Metrics.exponential_bounds: count must be >= 1")
    (fun () -> ignore (Metrics.exponential_bounds ~base:1. ~count:0));
  Alcotest.check_raises "base negative"
    (Invalid_argument
       "Metrics.exponential_bounds: base must be finite and positive")
    (fun () -> ignore (Metrics.exponential_bounds ~base:(-1.) ~count:3))

(* --- tracer component matching ------------------------------------------ *)

let test_component_boundaries () =
  let m filter c = Tracer.component_matches ~filter c in
  Alcotest.(check bool) "exact" true (m "sigma" "sigma");
  Alcotest.(check bool) "descendant" true (m "sigma" "sigma.router");
  Alcotest.(check bool) "deep descendant" true (m "sigma" "sigma.router.iface");
  Alcotest.(check bool) "no sibling prefix" false (m "sigma" "sigmax");
  Alcotest.(check bool) "no sibling descendant" false (m "sigma" "sigmax.fec");
  Alcotest.(check bool) "child filter vs parent" false (m "sigma.router" "sigma");
  (* A trailing dot is prefix notation for the same filter. *)
  Alcotest.(check bool) "trailing dot, exact" true (m "sigma." "sigma");
  Alcotest.(check bool) "trailing dot, descendant" true
    (m "sigma." "sigma.router");
  Alcotest.(check bool) "trailing dot, sibling" false (m "sigma." "sigmax")

let test_check_component () =
  let ok s = Alcotest.(check bool) s true (Tracer.check_component s = Ok ()) in
  ok "sigma";
  ok "sigma.router";
  ok "sigma.";
  let err s =
    match Tracer.check_component s with
    | Error _ -> ()
    | Ok () -> Alcotest.fail (Printf.sprintf "%S accepted" s)
  in
  err "";
  err "  ";
  err "sigma..router";
  err "si gma";
  (match Tracer.check_components [ "sigma"; "link"; "" ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "empty filter accepted in list");
  Alcotest.(check bool) "all valid" true
    (Tracer.check_components [ "sigma"; "link.0" ] = Ok ())

(* --- JSON parser -------------------------------------------------------- *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("name", Json.String "fig7");
        ("n", Json.Int 3);
        ("x", Json.Float 1.5);
        ("flag", Json.Bool true);
        ("nothing", Json.Null);
        ("series", Json.List [ Json.List [ Json.Float 0.; Json.Float 2. ] ]);
        ("esc", Json.String "a\"b\\c\n\t");
      ]
  in
  match Json.of_string (Json.to_string j) with
  | Ok j' -> Alcotest.(check string) "round-trip" (Json.to_string j) (Json.to_string j')
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let test_json_errors () =
  let bad s =
    match Json.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S accepted" s)
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":1,}";
  bad "nul";
  bad "1 2";
  bad "\"unterminated";
  (* The number scan admits these; the parse still fails. *)
  List.iter bad [ "1e"; "-."; "0.e"; "1e+"; "-e5" ];
  (match Json.of_string {|{"version": 1, "duration": 1e}|} with
  | Error e ->
      Alcotest.(check string) "offset of the number's first byte"
        {|at offset 27: invalid number "1e"|} e
  | Ok _ -> Alcotest.fail "document accepted");
  match Json.of_string "  [1, 2.5, \"x\"]  " with
  | Ok (Json.List [ Json.Int 1; Json.Float 2.5; Json.String "x" ]) -> ()
  | Ok j -> Alcotest.fail ("wrong shape: " ^ Json.to_string j)
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

(* Whatever the input, [of_string] answers [Ok] or [Error] and never
   raises.  Inputs are short strings over JSON's own characters, and
   truncations and one-byte mutations of rendered documents, whose
   floats render with exponents. *)
let json_chars = {|0123456789-+.eE[]{},:" tfnrul\|}

let gen_json_char =
  QCheck.Gen.(
    map (String.get json_chars) (int_bound (String.length json_chars - 1)))

let gen_json =
  QCheck.Gen.(
    let leaf =
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun i -> Json.Int i) small_signed_int;
          map2
            (fun m e -> Json.Float (m *. (10. ** float_of_int e)))
            (float_range (-10.) 10.) (int_range (-30) 30);
          map (fun s -> Json.String s) (string_size (int_bound 4));
        ]
    in
    let field i v = (string_of_int i, v) in
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           let items = list_size (int_bound 3) (self (n - 1)) in
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.List l) items);
                 (1, map (fun l -> Json.Obj (List.mapi field l)) items);
               ]))

(* A rendered document cut short, or with one byte replaced. *)
let damage s =
  QCheck.Gen.(
    oneof
      [
        map (fun k -> String.sub s 0 k) (int_bound (String.length s));
        map2
          (fun i ch ->
            let b = Bytes.of_string s in
            Bytes.set b (i mod Bytes.length b) ch;
            Bytes.to_string b)
          nat gen_json_char;
      ])

let gen_json_input =
  QCheck.Gen.(
    oneof
      [
        string_size ~gen:gen_json_char (int_bound 12);
        gen_json >>= fun j -> damage (Json.to_string j);
      ])

let prop_json_never_raises =
  QCheck.Test.make ~name:"json of_string never raises" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_json_input)
    (fun s -> match Json.of_string s with Ok _ | Error _ -> true)

(* --- series JSONL determinism ------------------------------------------- *)

(* Mirrors test_runner's small batch: cheap spec kinds at short horizons,
   but sampled.  The attack entry carries the interesting series. *)
let sampled_batch () =
  List.map
    (fun (name, spec) ->
      { Runner.name; group = name; doc = name;
        spec = Spec.scale_time spec ~factor:0.1 })
    [
      ("attack", Spec.Attack { Spec.default_attack with Spec.mode = Flid.Robust });
      ("sweep2", Spec.Sweep { Spec.default_sweep with Spec.sessions = 2 });
      ("conv",
       Spec.Convergence { Spec.default_convergence with Spec.mode = Flid.Plain });
    ]

let capture_series entries ~jobs =
  let buf = Buffer.create 4096 in
  ignore
    (Runner.run_batch ~jobs ~sample_dt:0.5
       ~sinks:[ Sink.series_jsonl (Buffer.add_string buf) ]
       entries);
  Buffer.contents buf

let test_series_determinism () =
  let entries = sampled_batch () in
  let s1 = capture_series entries ~jobs:1 in
  let s4 = capture_series entries ~jobs:4 in
  Alcotest.(check bool) "series non-empty" true (String.length s1 > 0);
  Alcotest.(check string) "series jsonl byte-identical, jobs 1 vs 4" s1 s4;
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' s1) in
  Alcotest.(check int) "one line per sampled entry" (List.length entries)
    (List.length lines);
  (* Every line parses back into a run with sampled points. *)
  List.iter
    (fun line ->
      match Forensics.parse_series_line line with
      | Ok run ->
          Alcotest.(check bool)
            (run.Forensics.name ^ " has series")
            true
            (run.Forensics.series <> []
            && List.for_all (fun (_, pts) -> pts <> []) run.Forensics.series)
      | Error e -> Alcotest.fail ("sink line does not parse: " ^ e))
    lines;
  (* Sampling one batch must not leak into the next unsampled run. *)
  ignore
    (Runner.run_batch ~jobs:1 ~sinks:[] [ List.hd entries ]);
  Alcotest.(check bool) "sampling off after batch" false (Timeseries.enabled ())

(* The attack figure's series must carry the paper's narrative: under
   SIGMA, eviction/rejection activity appears only after attack_at. *)
let test_attack_series_narrative () =
  let entry =
    { Runner.name = "attack"; group = "attack"; doc = "";
      spec =
        Spec.Attack
          { Spec.default_attack with Spec.mode = Flid.Robust; Spec.duration = 40.;
            Spec.attack_at = 20. } }
  in
  let buf = Buffer.create 4096 in
  ignore
    (Runner.run_batch ~jobs:1 ~sample_dt:0.5
       ~sinks:[ Sink.series_jsonl (Buffer.add_string buf) ]
       [ entry ]);
  match
    Forensics.parse_series_lines
      (String.split_on_char '\n' (Buffer.contents buf))
  with
  | Error e -> Alcotest.fail e
  | Ok [ run ] ->
      let series name =
        match List.assoc_opt name run.Forensics.series with
        | Some pts -> pts
        | None ->
            Alcotest.fail
              (Printf.sprintf "series %S missing (have: %s)" name
                 (String.concat ", " (List.map fst run.Forensics.series)))
      in
      let rejected = series "sigma.r1.keys_rejected_per_s" in
      let active = List.filter (fun (_, v) -> v > 0.) rejected in
      Alcotest.(check bool) "rejections happen" true (active <> []);
      List.iter
        (fun (t, _) ->
          Alcotest.(check bool)
            (Printf.sprintf "rejection at t=%g only after the attack" t)
            true (t >= 20.))
        active;
      (* The honest receiver's goodput series exists and moved data. *)
      let goodputs =
        List.filter
          (fun (n, _) ->
            String.length n > 13
            && String.sub n (String.length n - 13) 13 = ".goodput_kbps")
          run.Forensics.series
      in
      Alcotest.(check bool) "goodput series present" true (goodputs <> []);
      Alcotest.(check bool) "goodput nonzero somewhere" true
        (List.exists
           (fun (_, pts) -> List.exists (fun (_, v) -> v > 0.) pts)
           goodputs)
  | Ok runs ->
      Alcotest.fail (Printf.sprintf "expected 1 run, got %d" (List.length runs))

(* --- sparkline and report parsing --------------------------------------- *)

let test_sparkline () =
  Alcotest.(check int) "empty is width blanks" 10
    (String.length (Forensics.sparkline ~width:10 []));
  Alcotest.(check string) "empty is blank" (String.make 10 ' ')
    (Forensics.sparkline ~width:10 []);
  let flat = List.init 20 (fun i -> (float_of_int i, 5.)) in
  let s = Forensics.sparkline ~width:10 flat in
  Alcotest.(check int) "requested width" 10 (String.length s);
  Alcotest.(check string) "constant positive at full height"
    (String.make 10 '@') s;
  let zero = List.init 20 (fun i -> (float_of_int i, 0.)) in
  Alcotest.(check string) "constant zero at lowest mark" (String.make 10 '.')
    (Forensics.sparkline ~width:10 zero);
  let ramp = List.init 100 (fun i -> (float_of_int i, float_of_int i)) in
  let r = Forensics.sparkline ~width:10 ramp in
  (* Bins are averaged, so the last bin sits one rung below the peak. *)
  Alcotest.(check char) "ramp starts at the bottom" '.' r.[0];
  Alcotest.(check bool) "ramp ends near the top" true
    (r.[9] = '%' || r.[9] = '@')

let test_trace_line_parse () =
  let line =
    {|{"t":25.5,"level":"warn","component":"sigma.router","event":"key_failure_start","attrs":{"receiver":3,"rejected":7}}|}
  in
  match Forensics.parse_trace_line line with
  | Ok e ->
      Alcotest.(check (float 0.)) "time" 25.5 e.Forensics.time;
      Alcotest.(check string) "component" "sigma.router" e.Forensics.component;
      Alcotest.(check string) "event" "key_failure_start" e.Forensics.event;
      Alcotest.(check bool) "attrs kept" true
        (List.mem_assoc "receiver" e.Forensics.attrs)
  | Error e -> Alcotest.fail e

let suite =
  ( "timeseries",
    [
      Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
      Alcotest.test_case "gauge and rate sampling" `Quick test_gauge_and_rate;
      Alcotest.test_case "name collisions suffixed" `Quick
        test_name_collision_suffix;
      Alcotest.test_case "series bounded" `Quick test_bounded_series;
      Alcotest.test_case "record and reset" `Quick test_record_and_reset;
      Alcotest.test_case "enable validation" `Quick test_enable_validation;
      Alcotest.test_case "sim drives the tick" `Quick test_sim_tick;
      Alcotest.test_case "exponential bounds" `Quick test_exponential_bounds;
      Alcotest.test_case "component dotted boundaries" `Quick
        test_component_boundaries;
      Alcotest.test_case "filter validation" `Quick test_check_component;
      Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
      Alcotest.test_case "json errors" `Quick test_json_errors;
      Alcotest.test_case "sparkline" `Quick test_sparkline;
      Alcotest.test_case "trace line parse" `Quick test_trace_line_parse;
      Alcotest.test_case "series determinism jobs 1 vs 4" `Slow
        test_series_determinism;
      Alcotest.test_case "attack series narrative" `Slow
        test_attack_series_narrative;
      (* Appended: earlier cases keep their indices in the suite. *)
      QCheck_alcotest.to_alcotest prop_json_never_raises;
    ] )
