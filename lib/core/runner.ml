module Flid = Mcc_mcast.Flid
module Metrics = Mcc_obs.Metrics
module Profile = Mcc_obs.Profile
module Timeseries = Mcc_obs.Timeseries

type entry = {
  name : string;
  group : string;
  doc : string;
  spec : Spec.t;
}

(* --- the registry ------------------------------------------------------- *)

let sweep_counts = [ 1; 2; 4; 6; 8; 10; 12; 14; 16; 18 ]
let overhead_groups = [ 2; 4; 6; 8; 10; 12; 14; 16; 18; 20 ]
let overhead_slots = [ 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]

let sweep_entries ~group ~doc ~cross_traffic ~mode =
  List.map
    (fun sessions ->
      {
        name = Printf.sprintf "%s-n%02d" group sessions;
        group;
        doc = Printf.sprintf "%s, %d sessions" doc sessions;
        spec =
          Spec.Sweep
            {
              Spec.default_sweep with
              (* The pre-spec API seeded each point with 11 + sessions so
                 sweep points don't share traffic phases; kept for
                 bit-compatible figures. *)
              Spec.seed = 11 + sessions;
              sessions;
              cross_traffic;
              mode;
            };
      })
    sweep_counts

(* The studies beyond the figures, one entry per point: (group, seed,
   duration, warmup, doc, [(name suffix, study)]).  A lone point takes
   the group's name. *)
let study_entries =
  List.concat_map
    (fun (group, seed, duration, warmup, doc, points) ->
      List.map
        (fun (suffix, study) ->
          {
            name = (if suffix = "" then group else group ^ "-" ^ suffix);
            group;
            doc = (if suffix = "" then doc else doc ^ ", " ^ suffix);
            spec = Spec.Study { Spec.seed; duration; warmup; study };
          })
        points)
    [
      ( "protocols", 101, 200., 50.,
        "FLID-DS, replicated, RLM ladder, WEBRC equation and TCP sharing \
         one bottleneck",
        [ ("", Spec.Protocol_mix) ] );
      ( "collusion", 97, 60., 0.,
        "Section 4.2: key-passing collusion vs interface-specific keys",
        [
          ("plain", Spec.Key_passing { interface_keys = false });
          ("iface", Spec.Key_passing { interface_keys = true });
        ] );
      ( "ecn", 63, 120., 30.,
        "Section 3.1.2: ECN marks instead of drops as the congestion signal",
        [
          ("droptail", Spec.Ecn_signal { ecn = false });
          ("marking", Spec.Ecn_signal { ecn = true });
        ] );
      ( "oversub", 77, 120., 30.,
        "Oversubscribed CC (EWMA of the ECN mark fraction), 3 receivers",
        [ ("", Spec.Oversub_receivers) ] );
      ( "ablation-fec", 51, 120., 20.,
        "Ablation: FEC scheme for key distribution to edge routers",
        List.map
          (fun (suffix, scheme) -> (suffix, Spec.Fec_scheme { scheme }))
          [
            ("rep1", Mcc_sigma.Fec.Repetition 1);
            ("rep2", Mcc_sigma.Fec.Repetition 2);
            ("rep3", Mcc_sigma.Fec.Repetition 3);
            ("xor", Mcc_sigma.Fec.Xor_parity);
          ] );
      ( "ablation-grace", 53, 120., 30.,
        "Ablation: SIGMA grace slots after a keyed upgrade (paper: 2)",
        List.map
          (fun g -> (Printf.sprintf "%.1f" g, Spec.Upgrade_grace { grace_slots = g }))
          [ 0.; 0.5; 1.; 2.; 3. ] );
      ( "ablation-slot", 57, 100., 0.,
        "Ablation: FLID-DS slot duration against an 800 Kbps burst",
        List.map
          (fun slot ->
            ( Printf.sprintf "%.3f" slot,
              Spec.Slot_length { slot; burst_start = 45.; burst_stop = 75. } ))
          [ 0.125; 0.25; 0.5; 1.0 ] );
      ( "ablation-threshold", 59, 30., 0.,
        "Ablation: in-band key bits, XOR (FLID-DS) vs Shamir (RLM-like)",
        [
          ("xor", Spec.Key_material { shamir = false });
          ("shamir", Spec.Key_material { shamir = true });
        ] );
    ]

let registry =
  [
    {
      name = "fig1";
      group = "fig1";
      doc = "Figure 1: inflated subscription under FLID-DL";
      spec = Spec.Attack { Spec.default_attack with Spec.mode = Flid.Plain };
    };
    {
      name = "fig7";
      group = "fig7";
      doc = "Figure 7: the same attack under FLID-DS (DELTA + SIGMA)";
      spec = Spec.Attack Spec.default_attack;
    };
  ]
  @ sweep_entries ~group:"fig8a" ~cross_traffic:false ~mode:Flid.Plain
      ~doc:"Figure 8a: FLID-DL throughput vs sessions"
  @ sweep_entries ~group:"fig8b" ~cross_traffic:false ~mode:Flid.Robust
      ~doc:"Figure 8b: FLID-DS throughput vs sessions"
  @ sweep_entries ~group:"fig8d-dl" ~cross_traffic:true ~mode:Flid.Plain
      ~doc:"Figure 8d: FLID-DL with TCP and on-off CBR cross traffic"
  @ sweep_entries ~group:"fig8d-ds" ~cross_traffic:true ~mode:Flid.Robust
      ~doc:"Figure 8d: FLID-DS with TCP and on-off CBR cross traffic"
  @ [
      {
        name = "fig8e-dl";
        group = "fig8e";
        doc = "Figure 8e: FLID-DL responsiveness to an 800 Kbps burst";
        spec =
          Spec.Responsiveness
            { Spec.default_responsiveness with Spec.mode = Flid.Plain };
      };
      {
        name = "fig8e-ds";
        group = "fig8e";
        doc = "Figure 8e: FLID-DS responsiveness to an 800 Kbps burst";
        spec = Spec.Responsiveness Spec.default_responsiveness;
      };
      {
        name = "fig8f-dl";
        group = "fig8f";
        doc = "Figure 8f: FLID-DL throughput vs heterogeneous RTTs";
        spec = Spec.Rtt { Spec.default_rtt with Spec.mode = Flid.Plain };
      };
      {
        name = "fig8f-ds";
        group = "fig8f";
        doc = "Figure 8f: FLID-DS throughput vs heterogeneous RTTs";
        spec = Spec.Rtt Spec.default_rtt;
      };
      {
        name = "fig8g";
        group = "fig8g";
        doc = "Figure 8g: FLID-DL subscription convergence";
        spec =
          Spec.Convergence
            { Spec.default_convergence with Spec.mode = Flid.Plain };
      };
      {
        name = "fig8h";
        group = "fig8h";
        doc = "Figure 8h: FLID-DS subscription convergence";
        spec = Spec.Convergence Spec.default_convergence;
      };
    ]
  @ List.map
      (fun groups ->
        {
          name = Printf.sprintf "fig9a-g%02d" groups;
          group = "fig9a";
          doc =
            Printf.sprintf
              "Figure 9a: DELTA/SIGMA overhead with %d groups" groups;
          spec =
            Spec.Overhead
              { Spec.default_overhead with Spec.groups = groups; axis = Spec.Groups };
        })
      overhead_groups
  @ List.map
      (fun slot ->
        {
          name = Printf.sprintf "fig9b-s%.1f" slot;
          group = "fig9b";
          doc =
            Printf.sprintf
              "Figure 9b: DELTA/SIGMA overhead with %.1f s slots" slot;
          spec =
            Spec.Overhead
              { Spec.default_overhead with Spec.slot = slot; axis = Spec.Slot };
        })
      overhead_slots
  @ [
      {
        name = "partial";
        group = "partial";
        doc =
          "Section 3.2.3: incremental deployment, SIGMA vs legacy edge router";
        spec = Spec.Partial Spec.default_partial;
      };
    ]
  @ study_entries

let () =
  (* A duplicate name would make --only ambiguous; fail at first use. *)
  let seen = Hashtbl.create 97 in
  List.iter
    (fun e ->
      if Hashtbl.mem seen e.name then
        invalid_arg (Printf.sprintf "Runner: duplicate entry %S" e.name);
      Hashtbl.add seen e.name ())
    registry

let all () = registry

let groups () =
  List.fold_left
    (fun acc e -> if List.mem e.group acc then acc else e.group :: acc)
    [] registry
  |> List.rev

let find key =
  match List.filter (fun e -> e.name = key) registry with
  | [] -> List.filter (fun e -> e.group = key) registry
  | exact -> exact

let lookup name = List.find_opt (fun e -> e.name = name) registry

(* --- multicore execution ------------------------------------------------ *)

(* Work-stealing over an atomic cursor: each domain claims the next
   unclaimed index and writes its result into that slot, so the merged
   order is the input order no matter how the jobs interleave.  Every
   simulation is confined to the claiming domain — Sim.t, PRNG, meters
   and topology are all allocated inside [f]. *)
let parallel_map ~jobs f inputs =
  let arr = Array.of_list inputs in
  let n = Array.length arr in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then List.map f inputs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (* input-order slots: worker i is the only writer of
             results.(i), arr is never written, and the join below
             happens-before the read-back *)
          (* lint: allow domain-escape — results slot discipline above *)
          (results.(i) <-
             (* lint: allow domain-escape — arr is read-only in workers *)
             Some (try Ok (f arr.(i)) with exn -> Error exn));
          loop ()
        end
      in
      loop ()
    in
    let helpers = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join helpers;
    Array.to_list results
    |> List.map (function
         | Some (Ok r) -> r
         | Some (Error exn) -> raise exn
         | None -> assert false)
  end

(* The scheduler default is domain-local and worker domains start from a
   fresh heap default, so a batch's --sched choice is applied inside the
   worker body — bracketed, like the metrics reset, so a caller's own
   default survives the batch. *)
let with_sched sched f =
  match sched with
  | None -> f ()
  | Some backend ->
      let prev = Mcc_engine.Scheduler.default () in
      Mcc_engine.Scheduler.set_default backend;
      Fun.protect
        ~finally:(fun () -> Mcc_engine.Scheduler.set_default prev)
        f

(* --- profiled execution ------------------------------------------------- *)

(* Every metric any experiment can touch, registered up front so each
   run's snapshot has the same schema whatever the spec exercises: a
   fig1 (Plain mode) row still carries the sigma.* counters, at zero. *)
let counter_catalog =
  [
    "engine.events";
    "link.tx_packets"; "link.tx_bytes";
    "link.enqueues"; "link.enqueue_bytes";
    "link.drops"; "link.drop_bytes";
    "link.marks"; "link.mark_bytes";
    (* Reads 0: links mark at a fixed threshold and count into
       link.marks.  The name stays so every row keeps its schema, and
       the pinned digests with it. *)
    "red.marks";
    "sigma.subscriptions"; "sigma.keys_accepted"; "sigma.keys_rejected";
    "sigma.acks"; "sigma.upgrade_graces"; "sigma.grace_admissions";
    "sigma.suppressed_duplicates"; "sigma.unsubscribes"; "sigma.lockouts";
    "sigma.specials"; "sigma.guesses";
    "sigma.fec.chunks"; "sigma.fec.duplicates";
    "flid.slots"; "flid.inferred_losses";
    "flid.joins"; "flid.leaves"; "flid.level_changes";
    "rlm.slots"; "rlm.inferred_losses";
    "rlm.joins"; "rlm.leaves"; "rlm.level_changes";
    "rep.slots"; "rep.switches"; "rep.inferred_losses";
    "tcp.retransmits"; "tcp.rto_fires";
    "attack.submissions"; "attack.guesses"; "attack.replays";
    "attack.churn_cycles"; "attack.colluder_shares";
  ]

let gauge_catalog =
  [
    (* Sim also registers engine.queue_capacity gauges (a generic one
       plus a per-backend view), but those are backend-performance
       diagnostics — the heap's high-water mark tracks peak event
       population while the wheel's slot table is fixed — so
       [run_spec_profiled] folds them into the profile and drops them
       from the deterministic snapshot; preregistering them here would
       only reintroduce backend-dependent record bytes. *)
    "sigma.fec.expansion";
  ]

(* Bounds must match the instrumentation sites or registration raises. *)
let preregister () =
  List.iter (fun name -> ignore (Metrics.counter name)) counter_catalog;
  List.iter (fun name -> ignore (Metrics.gauge name)) gauge_catalog;
  ignore
    (Metrics.histogram "sigma.subscribe_pairs"
       ~bounds:(Metrics.exponential_bounds ~base:1. ~count:5));
  ignore
    (Metrics.histogram "tcp.rtt_ms"
       ~bounds:(Metrics.exponential_bounds ~base:10. ~count:8))

(* Shared profile assembly: lift the engine counters (and the backend
   stats probe the sim parked on this domain) out of the snapshot into
   the profile record.  Queue capacity is a property of the scheduler
   backend, not of the simulated system: the heap's high-water mark
   follows peak event population while the wheel's slot table is a
   constant.  It travels in the profile (with [sched] and the wall
   clock), and dropping the gauges from the snapshot keeps sink records
   byte-identical across --sched. *)
let finish_profile ?sched ?minor_words metrics wall_s =
  let events =
    match List.assoc_opt "engine.events" metrics with
    | Some (Metrics.Counter n) -> n
    | Some _ | None -> 0
  in
  let queue_capacity =
    match List.assoc_opt "engine.queue_capacity" metrics with
    | Some (Metrics.Gauge v) -> int_of_float v
    | Some _ | None -> 0
  in
  let metrics =
    List.filter
      (fun (name, _) ->
        not (String.starts_with ~prefix:"engine.queue_capacity" name))
      metrics
  in
  let sched_name =
    Mcc_engine.Scheduler.backend_name
      (match sched with
      | Some b -> b
      | None -> Mcc_engine.Scheduler.default ())
  in
  let sched_stats = Profile.take_sched_stats () in
  ( metrics,
    Profile.make ~sched:sched_name ?sched_stats ?minor_words ~events
      ~queue_capacity ~wall_s () )

(* The bracket every run goes through.  The registry is reset on both
   sides of the run: entering clean keeps the snapshot to this one spec,
   and leaving clean keeps a later run in the same domain (or the
   caller's own metrics) from inheriting stale handles. *)
let bracket ?sched ?sample_dt run =
  Metrics.reset ();
  preregister ();
  (* Sampling is configured inside the (possibly worker-domain) call, so
     a parallel batch samples exactly like a serial one; [disable] also
     clears the series, bracketing like the metrics reset. *)
  (match sample_dt with
  | Some dt -> Timeseries.enable ~dt ()
  | None -> ());
  let result, wall_s, minor_words =
    Profile.measure (fun () -> with_sched sched run)
  in
  let metrics = Metrics.snapshot () in
  let series =
    match sample_dt with Some _ -> Timeseries.snapshot () | None -> []
  in
  Timeseries.disable ();
  Metrics.reset ();
  let metrics, profile = finish_profile ?sched ~minor_words metrics wall_s in
  (result, metrics, series, profile)

let run_spec_profiled ?sched ?sample_dt spec =
  bracket ?sched ?sample_dt (fun () -> Experiments.run spec)

(* --- instrumented execution (mcc profile) ------------------------------- *)

type instrumented = {
  i_result : Experiments.result;
  i_metrics : (string * Metrics.value) list;
  i_profile : Profile.t;
  i_prof : Mcc_obs.Prof.entry list;
  i_lineage : Mcc_obs.Lineage.summary;
}

(* Like [run_spec_profiled], but with the self-profiler and packet
   lineage collecting.  Prof/Lineage state is domain-local, so both the
   run and the snapshots happen inside this one call, on the caller's
   domain — there is deliberately no batch variant.  The root "run"
   span brackets the whole experiment, so the snapshot's self times sum
   to (almost exactly) the measured wall time; opening it here keeps
   every span site inside lib/, where the lint prof-span rule wants
   them. *)
let run_spec_instrumented ?sched spec =
  Mcc_obs.Prof.enable ();
  Mcc_obs.Lineage.enable ();
  let result, metrics, _, profile =
    bracket ?sched (fun () ->
        Mcc_obs.Prof.with_span "run" (fun () -> Experiments.run spec))
  in
  let prof = Mcc_obs.Prof.snapshot () in
  let lineage = Mcc_obs.Lineage.summary () in
  Mcc_obs.Prof.disable ();
  Mcc_obs.Lineage.disable ();
  { i_result = result; i_metrics = metrics; i_profile = profile;
    i_prof = prof; i_lineage = lineage }

type row = {
  entry : entry;
  result : Experiments.result;
  metrics : (string * Metrics.value) list;
  series : (string * (float * float) list) list;
  profile : Profile.t;
}

let run_batch ?(jobs = 1) ?sched ?sample_dt ?(sinks = []) ?on_progress
    ?progress_interval entries =
  (* The monitor only ever drives the callback (the CLI's stderr meter):
     workers report each cell as it completes, but results still land in
     input-order slots and sinks are fed after the batch below —
     telemetry on/off cannot change sink bytes. *)
  let monitor =
    Option.map
      (fun callback ->
        Mcc_obs.Progress.start ?interval:progress_interval
          ~total:(List.length entries) ~on_progress:callback ())
      on_progress
  in
  let run entry =
    let result, metrics, series, profile =
      run_spec_profiled ?sched ?sample_dt entry.spec
    in
    Option.iter
      (fun monitor ->
        Mcc_obs.Progress.cell_done monitor ~events:profile.Profile.events
          ~minor_words:
            (float_of_int
               (Option.value profile.Profile.minor_words ~default:0)))
      monitor;
    { entry; result; metrics; series; profile }
  in
  let rows =
    Fun.protect
      ~finally:(fun () ->
        Option.iter (fun m -> ignore (Mcc_obs.Progress.stop m)) monitor)
      (fun () -> parallel_map ~jobs run entries)
  in
  List.iter
    (fun { entry = e; result; metrics; series; profile } ->
      let record =
        {
          Sink.name = e.name;
          group = e.group;
          spec = e.spec;
          result;
          metrics;
          series;
          profile = Some profile;
        }
      in
      List.iter (fun sink -> Sink.emit sink record) sinks)
    rows;
  rows
