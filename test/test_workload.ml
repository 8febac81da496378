(* Workload subsystem tests: schema validation with field-path
   diagnostics, seed-driven generator determinism (same seed, same
   topology bytes), byte-identical runner output across job counts and
   scheduler backends, the Oversub control law end to end, and the
   workload-file digest the ledger records. *)

module Spec = Mcc_core.Spec
module Sink = Mcc_core.Sink
module Runner = Mcc_core.Runner
module Scenario = Mcc_core.Scenario
module Json = Mcc_core.Json
module Ledger = Mcc_obs.Ledger
module Sim = Mcc_engine.Sim
module Scheduler = Mcc_engine.Scheduler
module Topology = Mcc_net.Topology
module Prng = Mcc_util.Prng
module Meter = Mcc_util.Meter
module Flid = Mcc_mcast.Flid
module Oversub = Mcc_mcast.Oversub
module Topo_gen = Mcc_workload.Topo_gen
module Churn = Mcc_workload.Churn
module Schema = Mcc_workload.Schema

(* Reference Build so its Spec.Workload implementation hook registers
   even though no test names the module's values. *)
let () = ignore (Mcc_workload.Build.run : Spec.workload_params -> _)

let contains ~needle haystack =
  let n = String.length needle in
  let rec find i =
    i + n <= String.length haystack
    && (String.sub haystack i n = needle || find (i + 1))
  in
  find 0

let parse s =
  match Json.of_string s with Ok j -> j | Error e -> Alcotest.fail e

let valid_doc =
  {|{ "version": 1, "name": "t", "seed": 5, "duration": 20,
      "topology": { "kind": "fat_tree", "k": 4, "core_rate_bps": 2000000 },
      "protocol": "oversub", "defence": "delta+sigma+ecn", "receivers": 3,
      "churn": { "kind": "flash_crowd", "at": 5, "arrivals": 2, "leave_after": 6 },
      "traffic": [ { "kind": "tcp", "flows": 1 } ],
      "attack": { "kind": "inflate", "at": 8 } }|}

(* --- schema ------------------------------------------------------------- *)

let test_schema_valid () =
  match Schema.params_of_json ~ctx:"w.json" (parse valid_doc) with
  | Error e -> Alcotest.fail e
  | Ok (name, seeded) ->
      Alcotest.(check string) "name" "t" name;
      Alcotest.(check int) "one seed" 1 (List.length seeded);
      let seed, p = List.hd seeded in
      Alcotest.(check int) "seed" 5 seed;
      Alcotest.(check bool) "protocol" true (p.Spec.protocol = Spec.Oversub);
      Alcotest.(check bool) "attack parsed" true
        (p.Spec.attack = Some Spec.Persistent_inflation);
      Alcotest.(check (float 1e-9)) "attack at" 8. p.Spec.attack_at

let expect_error ~needle doc =
  match Schema.params_of_json ~ctx:"w.json" (parse doc) with
  | Ok _ -> Alcotest.fail ("accepted invalid doc (wanted " ^ needle ^ ")")
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S names %S" e needle)
        true
        (contains ~needle e)

let test_schema_invalid () =
  (* Unknown field, with the file:field path in the diagnostic. *)
  expect_error ~needle:"w.json.typo"
    {|{ "version": 1, "name": "t", "duration": 20, "typo": 1,
        "topology": { "kind": "dumbbell" },
        "protocol": "flid", "defence": "plain", "receivers": 2 }|};
  (* Wrong version. *)
  expect_error ~needle:"w.json.version"
    {|{ "version": 9, "name": "t", "duration": 20,
        "topology": { "kind": "dumbbell" },
        "protocol": "flid", "defence": "plain", "receivers": 2 }|};
  (* Unknown protocol lists the registry. *)
  expect_error ~needle:"oversub"
    {|{ "version": 1, "name": "t", "duration": 20,
        "topology": { "kind": "dumbbell" },
        "protocol": "ftp", "defence": "plain", "receivers": 2 }|};
  (* Nested field path. *)
  expect_error ~needle:"w.json.topology.k"
    {|{ "version": 1, "name": "t", "duration": 20,
        "topology": { "kind": "fat_tree", "k": 3 },
        "protocol": "flid", "defence": "plain", "receivers": 2 }|};
  (* Capacity: fat_tree(4) seats 15 receivers, flash crowd pushes past. *)
  expect_error ~needle:"w.json.receivers"
    {|{ "version": 1, "name": "t", "duration": 20,
        "topology": { "kind": "fat_tree", "k": 4 },
        "protocol": "flid", "defence": "plain", "receivers": 10,
        "churn": { "kind": "flash_crowd", "at": 5, "arrivals": 10 } }|};
  (* seed and seeds are mutually exclusive. *)
  expect_error ~needle:"w.json.seeds"
    {|{ "version": 1, "name": "t", "seed": 1, "seeds": [1, 2], "duration": 20,
        "topology": { "kind": "dumbbell" },
        "protocol": "flid", "defence": "plain", "receivers": 2 }|};
  (* A number that overflows to infinity is no number: an infinite
     duration would run without end. *)
  expect_error ~needle:"w.json.duration: expected a finite number"
    {|{ "version": 1, "name": "t", "duration": 1e999,
        "topology": { "kind": "dumbbell" },
        "protocol": "flid", "defence": "plain", "receivers": 2 }|};
  (* ... in a nested field too, where no range check applies. *)
  expect_error ~needle:"w.json.churn.leave_after: expected a finite number"
    {|{ "version": 1, "name": "t", "duration": 20,
        "topology": { "kind": "dumbbell" },
        "protocol": "flid", "defence": "plain", "receivers": 2,
        "churn": { "kind": "flash_crowd", "at": 5, "arrivals": 2,
                   "leave_after": 1e999 } }|};
  (* A diurnal period shorter than two FLID-DL slots: the churn plan
     makes one receiver interval per period, and this one would exhaust
     memory. *)
  expect_error ~needle:"w.json.churn.period"
    {|{ "version": 1, "name": "t", "duration": 20,
        "topology": { "kind": "dumbbell" },
        "protocol": "flid", "defence": "plain", "receivers": 2,
        "churn": { "kind": "diurnal", "period": 1e-7, "fraction": 0.5 } }|};
  (* workloads/fat_tree_flash_crowd.json with max_int arrivals: the
     receivers plus the arrivals would wrap negative, under any seat
     count. *)
  List.iter
    (fun needle ->
      expect_error ~needle
        {|{ "version": 1, "name": "fat-tree-flash-crowd", "seed": 43,
            "duration": 120,
            "topology": { "kind": "fat_tree", "k": 4,
                          "core_rate_bps": 2000000 },
            "protocol": "flid", "defence": "delta+sigma+ecn",
            "receivers": 6,
            "churn": { "kind": "flash_crowd", "at": 30,
                       "arrivals": 4611686018427387903,
                       "leave_after": 40 } }|})
    [ "w.json.receivers"; "4611686018427387903 churn.arrivals" ];
  (* Sizes a run would build in full before its first event: a fat tree
     of about 2.5e14 receiver hosts, a dumbbell one host past the bound,
     and a diurnal plan of one interval per second for 1e12 s. *)
  expect_error ~needle:"w.json.topology: the fat_tree topology builds"
    {|{ "version": 1, "name": "t", "duration": 20,
        "topology": { "kind": "fat_tree", "k": 100000 },
        "protocol": "flid", "defence": "plain", "receivers": 2 }|};
  expect_error ~needle:"w.json.receivers: 990 receivers plus 11 churn.arrivals"
    {|{ "version": 1, "name": "t", "duration": 20,
        "topology": { "kind": "dumbbell" },
        "protocol": "flid", "defence": "plain", "receivers": 990,
        "churn": { "kind": "flash_crowd", "at": 5, "arrivals": 11 } }|};
  expect_error ~needle:"w.json.churn: 1 cycling receivers"
    {|{ "version": 1, "name": "t", "duration": 1e12,
        "topology": { "kind": "dumbbell" },
        "protocol": "flid", "defence": "plain", "receivers": 2,
        "churn": { "kind": "diurnal", "period": 1, "fraction": 0.5 } }|};
  (* ... and the links or hosts each of these would build: the committed
     workloads/isp_regional_outage.json with 1e12 shortcut links, and
     workloads/web_cross_traffic.json with 1e12 web flows, then 1e12
     tcp flows after its 4 web ones. *)
  expect_error
    ~needle:"w.json.topology.extra_links: 1000000000000 shortcut links exceed"
    {|{ "version": 1, "name": "isp-regional-outage", "seed": 53,
        "duration": 120,
        "topology": { "kind": "isp_random", "routers": 6,
                      "extra_links": 1000000000000, "hosts_per_edge": 2,
                      "core_rate_bps": 2000000 },
        "protocol": "flid", "defence": "delta+sigma", "receivers": 9,
        "churn": { "kind": "regional_outage", "at": 40, "restore_at": 80,
                   "fraction": 0.4 } }|};
  let web_cross_traffic ~web ~tcp =
    Printf.sprintf
      {|{ "version": 1, "name": "web-cross-traffic", "seed": 61,
          "duration": 120, "topology": { "kind": "dumbbell" },
          "protocol": "flid", "defence": "delta+sigma", "receivers": 4,
          "traffic": [
            { "kind": "web", "flows": %d, "rate_bps": 200000, "mean_on": 5,
              "mean_off": 5 },
            { "kind": "tcp", "flows": %d } ] }|}
      web tcp
  in
  expect_error ~needle:"w.json.traffic[0].flows: 1000000000000 flows exceed"
    (web_cross_traffic ~web:1_000_000_000_000 ~tcp:1);
  expect_error
    ~needle:
      "w.json.traffic[1].flows: 1000000000000 flows plus 4 in earlier \
       traffic entries"
    (web_cross_traffic ~web:4 ~tcp:1_000_000_000_000)

(* Mutated copies of the committed workload files: the schema must
   answer each with a diagnostic naming the file, never an exception.
   A mutation replaces a value below the root (a leaf, or a whole
   object or list) with a hostile one, drops an object's field, or adds
   an unknown field; each case applies one to three of them.  The files
   are read on first use, from the copy dune puts beside the test. *)
let workload_docs =
  lazy
    (Sys.readdir "../workloads" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (fun f ->
           let path = Filename.concat "../workloads" f in
           (path, parse (In_channel.with_open_bin path In_channel.input_all))))

type step = Key of string | Index of int

(* Every value below the root, with its path. *)
let rec sites path (j : Json.t) =
  let here = if path = [] then [] else [ (List.rev path, j) ] in
  let below =
    match j with
    | Json.Obj fields ->
        List.concat_map (fun (k, v) -> sites (Key k :: path) v) fields
    | Json.List items ->
        List.concat (List.mapi (fun i v -> sites (Index i :: path) v) items)
    | _ -> []
  in
  here @ below

(* [j] with [f] applied to the value at [path]. *)
let rec edit path f (j : Json.t) =
  match (path, j) with
  | [], _ -> f j
  | Key k :: rest, Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k', v) -> (k', if k' = k then edit rest f v else v))
           fields)
  | Index i :: rest, Json.List items ->
      Json.List
        (List.mapi (fun i' v -> if i' = i then edit rest f v else v) items)
  | _ -> j

let hostile =
  Json.
    [
      Int max_int; Int min_int; Int 0; Int (-1); Float 5e-324; Float 1e-300;
      Float (-1.5); Float 0.; String ""; String "x"; Null; Bool true; List [];
      List [ Int 1 ]; Obj [];
    ]

let gen_mutation (j : Json.t) =
  let open QCheck.Gen in
  let objects =
    (* The root is an object too: it can lose or gain a field. *)
    ([], j)
    :: List.filter
         (fun (_, v) -> match v with Json.Obj _ -> true | _ -> false)
         (sites [] j)
  in
  let replace =
    let* path, _ = oneofl (sites [] j) in
    let* v = oneofl hostile in
    return (edit path (fun _ -> v) j)
  in
  let drop =
    let* path, o = oneofl objects in
    match o with
    | Json.Obj (_ :: _ as fields) ->
        let* n = int_bound (List.length fields - 1) in
        let fields = List.filteri (fun i _ -> i <> n) fields in
        return (edit path (fun _ -> Json.Obj fields) j)
    | _ -> return j
  in
  let add =
    let* path, _ = oneofl objects in
    let add_field = function
      | Json.Obj fields -> Json.Obj (fields @ [ ("unknown", Json.Int 1) ])
      | v -> v
    in
    return (edit path add_field j)
  in
  frequency [ (3, replace); (1, drop); (1, add) ]

let gen_mutated_doc =
  let open QCheck.Gen in
  let* path, doc = delay (fun () -> oneofl (Lazy.force workload_docs)) in
  let rec mutate n doc =
    if n = 0 then return doc else gen_mutation doc >>= mutate (n - 1)
  in
  let* doc = int_range 1 3 >>= fun n -> mutate n doc in
  return (path, doc)

let prop_schema_diagnoses =
  QCheck.Test.make ~name:"schema diagnoses mutated workloads" ~count:2000
    (QCheck.make
       ~print:(fun (path, doc) -> path ^ ": " ^ Json.to_string doc)
       gen_mutated_doc)
    (fun (path, doc) ->
      match Schema.entries_of_json ~ctx:path doc with
      | Ok _ -> true
      | Error e -> contains ~needle:path e)

let test_schema_multi_seed () =
  let doc =
    {|{ "version": 1, "name": "multi seed", "seeds": [7, 8], "duration": 10,
        "topology": { "kind": "dumbbell" },
        "protocol": "flid", "defence": "delta+sigma", "receivers": 2 }|}
  in
  match Schema.entries_of_json ~ctx:"w.json" (parse doc) with
  | Error e -> Alcotest.fail e
  | Ok entries ->
      Alcotest.(check (list string))
        "one entry per seed, sanitized names"
        [ "multi-seed-s7"; "multi-seed-s8" ]
        (List.map (fun (e : Runner.entry) -> e.Runner.name) entries)

(* --- generator determinism ---------------------------------------------- *)

let dump_of ~seed spec =
  let sim = Sim.create () in
  let built =
    Topo_gen.build sim ~prng:(Prng.create seed) ~spec ~hosts:4
  in
  Topology.dump built.Topo_gen.topo

let test_generator_determinism () =
  List.iter
    (fun spec ->
      let a = dump_of ~seed:11 spec and b = dump_of ~seed:11 spec in
      Alcotest.(check string)
        (Spec.topology_str spec ^ " same seed, same bytes")
        a b)
    [
      Spec.Dumbbell_topo;
      Spec.Fat_tree { k = 4; core_rate_bps = 2e6 };
      Spec.Star_lans { lans = 3; hosts_per_lan = 2; core_rate_bps = 2e6 };
      Spec.Isp_random
        { routers = 6; extra_links = 3; hosts_per_edge = 2; core_rate_bps = 2e6 };
    ];
  (* The random graph actually uses its seed. *)
  let spec =
    Spec.Isp_random
      { routers = 8; extra_links = 4; hosts_per_edge = 2; core_rate_bps = 2e6 }
  in
  Alcotest.(check bool)
    "isp_random differs across seeds" false
    (String.equal (dump_of ~seed:11 spec) (dump_of ~seed:12 spec))

let test_generator_shapes () =
  let sim = Sim.create () in
  let ft =
    Topo_gen.build sim ~prng:(Prng.create 1)
      ~spec:(Spec.Fat_tree { k = 4; core_rate_bps = 2e6 })
      ~hosts:4
  in
  Alcotest.(check int) "fat_tree(4) edges" 8 (List.length ft.Topo_gen.edges);
  Alcotest.(check int) "fat_tree(4) pool" 15 (List.length ft.Topo_gen.pool);
  Alcotest.(check int) "capacity matches pool" 15
    (Topo_gen.capacity ~spec:(Spec.Fat_tree { k = 4; core_rate_bps = 2e6 })
       ~hosts:4);
  Alcotest.check_raises "undersized shape rejected"
    (Invalid_argument
       "Topo_gen.build: star_lans provides 2 receiver hosts, workload needs 4")
    (fun () ->
      ignore
        (Topo_gen.build (Sim.create ()) ~prng:(Prng.create 1)
           ~spec:
             (Spec.Star_lans { lans = 2; hosts_per_lan = 1; core_rate_bps = 2e6 })
           ~hosts:4))

(* --- churn plans --------------------------------------------------------- *)

let test_churn_plans () =
  let flash =
    Churn.plan (Prng.create 3)
      ~spec:(Spec.Flash_crowd { at = 10.; arrivals = 4; leave_after = 5. })
      ~receivers:3 ~duration:60.
  in
  Alcotest.(check int) "flash intervals" 7 (List.length flash);
  List.iteri
    (fun i { Churn.host; at; until } ->
      Alcotest.(check int) "distinct hosts" i host;
      if i >= 3 then begin
        Alcotest.(check bool) "arrival joins around t=10" true
          (at >= 10. && at < 11.);
        match until with
        | Some u -> Alcotest.(check (float 1e-9)) "leaves 5s later" (at +. 5.) u
        | None -> Alcotest.fail "arrival should leave"
      end)
    flash;
  let outage =
    Churn.plan (Prng.create 3)
      ~spec:(Spec.Regional_outage { at = 20.; restore_at = 40.; fraction = 0.5 })
      ~receivers:4 ~duration:60.
  in
  (* 2 affected hosts x 2 intervals + 2 steady. *)
  Alcotest.(check int) "outage intervals" 6 (List.length outage);
  let diurnal =
    Churn.plan (Prng.create 3)
      ~spec:(Spec.Diurnal { period = 30.; fraction = 0.5 })
      ~receivers:4 ~duration:60.
  in
  (* 2 cycling hosts x 2 cycles + 2 steady. *)
  Alcotest.(check int) "diurnal intervals" 6 (List.length diurnal)

(* --- byte-identical runner output ---------------------------------------- *)

let test_run_byte_identity () =
  let doc =
    {|{ "version": 1, "name": "det", "seed": 9, "duration": 8,
        "topology": { "kind": "star_lans", "lans": 2, "hosts_per_lan": 2,
                      "core_rate_bps": 1000000 },
        "protocol": "flid", "defence": "delta+sigma", "receivers": 3,
        "traffic": [ { "kind": "web", "flows": 2, "rate_bps": 100000,
                       "mean_on": 2, "mean_off": 2 } ] }|}
  in
  let entries =
    match Schema.entries_of_json ~ctx:"det.json" (parse doc) with
    | Ok e -> e
    | Error e -> Alcotest.fail e
  in
  let capture ~jobs ~sched =
    let buf = Buffer.create 4096 in
    let sinks =
      [
        Sink.map
          (fun r -> { r with Sink.profile = None })
          (Sink.jsonl (Buffer.add_string buf));
      ]
    in
    ignore (Runner.run_batch ~jobs ~sched ~sinks entries);
    Buffer.contents buf
  in
  let heap =
    match Scheduler.of_name "heap" with Ok b -> b | Error e -> Alcotest.fail e
  in
  let wheel =
    match Scheduler.of_name "wheel" with Ok b -> b | Error e -> Alcotest.fail e
  in
  let reference = capture ~jobs:1 ~sched:heap in
  Alcotest.(check bool) "reference non-empty" true (reference <> "");
  Alcotest.(check string) "jobs 4 identical"
    reference
    (capture ~jobs:4 ~sched:heap);
  Alcotest.(check string) "wheel backend identical"
    reference
    (capture ~jobs:4 ~sched:wheel)

(* --- two sources of the same counts ---------------------------------------- *)

(* The runner's snapshot sums what every link's and SIGMA agent's
   metrics reader reports; the workload result folds the same counters
   over the topology's links and agents.  Two committed fat-tree
   workloads at the quick horizon, one run after the other on this
   domain: a reader lost at creation, or one kept past the runner's
   reset, makes the two disagree. *)
let test_snapshot_matches_result () =
  let entries =
    List.concat_map
      (fun file ->
        match Schema.load ~path:(Filename.concat "../workloads" file) with
        | Ok entries ->
            List.map
              (fun (e : Runner.entry) ->
                { e with
                  Runner.spec = Spec.scale_time e.Runner.spec ~factor:0.25 })
              entries
        | Error e -> Alcotest.fail e)
      [ "pulse_attack_fat_tree.json"; "fat_tree_flash_crowd.json" ]
  in
  let rows = Runner.run_batch ~jobs:1 ~sched:Scheduler.heap entries in
  let counter (r : Runner.row) name =
    match List.assoc_opt name r.Runner.metrics with
    | Some (Mcc_obs.Metrics.Counter n) -> n
    | Some _ | None -> Alcotest.failf "%s: no counter %s" r.entry.name name
  in
  let totals =
    List.map
      (fun (r : Runner.row) ->
        match r.Runner.result with
        | Mcc_core.Experiments.Workload w ->
            let pairs =
              [
                ("sigma.keys_rejected", w.w_keys_rejected);
                ("sigma.lockouts", w.w_lockouts);
                ("link.drops", w.w_drops);
                ("link.marks", w.w_marks);
              ]
            in
            List.iter
              (fun (name, n) ->
                Alcotest.(check int)
                  (r.entry.Runner.name ^ ": " ^ name)
                  n (counter r name))
              pairs;
            List.map snd pairs
        | _ -> Alcotest.failf "%s: not a workload result" r.entry.name)
      rows
  in
  Alcotest.(check int) "both workloads ran" 2 (List.length rows);
  (* Every compared count is non-zero in one of the two runs. *)
  Alcotest.(check (list bool)) "no count is zero in both runs"
    [ true; true; true; true ]
    (List.map (fun n -> n > 0)
       (List.fold_left (List.map2 ( + )) [ 0; 0; 0; 0 ] totals))

(* --- oversub end to end -------------------------------------------------- *)

let test_oversub_session () =
  let t =
    Scenario.create ~seed:21 ~ecn:true ~sigma:true
      ~bottleneck_rate_bps:1_000_000. ()
  in
  let _, _, receivers =
    Scenario.add_session (module Mcc_core.Protocol.Oversub) t ~mode:Flid.Robust
      ~receivers:[ Scenario.receiver () ] ()
  in
  Scenario.run t ~seconds:30.;
  let r = List.hd receivers in
  Alcotest.(check bool) "receiver climbed" true (Oversub.receiver_level r >= 1);
  Alcotest.(check bool) "goodput flowed" true
    (Meter.mean_kbps (Oversub.receiver_meter r) ~lo:5. ~hi:30. > 50.);
  let g = Oversub.mark_ewma r in
  Alcotest.(check bool) "ewma in range" true (g >= 0. && g <= 1.);
  (* The shared bottleneck with ECN produces congestion signals the
     control law must have reacted to at least once in 30 s. *)
  Alcotest.(check bool) "control law engaged" true
    (Oversub.congestion_events r > 0 || Oversub.decrease_events r > 0)

let test_oversub_registry () =
  Alcotest.(check int) "four protocols registered" 4
    (List.length Spec.protocols);
  Alcotest.(check string) "oversub short name" "oversub"
    (Spec.protocol_str Spec.Oversub);
  Alcotest.(check bool) "matrix columns follow the registry" true
    (List.exists
       (fun (e : Runner.entry) ->
         match e.Runner.spec with
         | Spec.Adversary p -> p.Spec.protocol = Spec.Oversub
         | _ -> false)
       (Mcc_attack.Matrix.entries ()));
  Alcotest.(check bool) "heading distinct from CLI name" true
    (Spec.protocol_heading Spec.Oversub <> Spec.protocol_str Spec.Oversub)

(* --- workload digest ----------------------------------------------------- *)

let test_workload_digest () =
  let d s = Ledger.digest_of_json (Json.String s) in
  Alcotest.(check string) "digest stable" (d valid_doc) (d valid_doc);
  Alcotest.(check bool) "digest tracks file bytes" false
    (String.equal (d valid_doc) (d (valid_doc ^ " ")))

let suite =
  ( "workload",
    [
      Alcotest.test_case "schema valid" `Quick test_schema_valid;
      Alcotest.test_case "schema invalid" `Quick test_schema_invalid;
      Alcotest.test_case "schema multi-seed" `Quick test_schema_multi_seed;
      QCheck_alcotest.to_alcotest prop_schema_diagnoses;
      Alcotest.test_case "generator determinism" `Quick
        test_generator_determinism;
      Alcotest.test_case "generator shapes" `Quick test_generator_shapes;
      Alcotest.test_case "churn plans" `Quick test_churn_plans;
      Alcotest.test_case "run byte identity" `Slow test_run_byte_identity;
      Alcotest.test_case "snapshot counts match the result" `Quick
        test_snapshot_matches_result;
      Alcotest.test_case "oversub session" `Slow test_oversub_session;
      Alcotest.test_case "oversub registry" `Quick test_oversub_registry;
      Alcotest.test_case "workload digest" `Quick test_workload_digest;
    ] )
