(* lint: allow mli-coverage — benchmark entry point, no interface to document *)

(* The repository benchmark: four workloads of deterministic simulations,
   driven only through the simulator's public entry points (Runner,
   Matrix, Scenario, the workload Schema/Build pair and the per-layer
   modules), timed end to end and then split by layer.  BENCHMARK.json
   names flid-sweep and threshold-keys; attack-matrix and
   generated-topologies run only by hand (see perfbench/METRICS.md for
   why).

   Usage (perfbench/run.py builds this executable and calls it):

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 repeats the batch for S seconds, in rounds of one child
   process per CPU (at most two, each pinned to its CPU), with the host
   clock stamped at every simulated second (see [sliced]); set-up and run
   time are each slice's fastest repetition, summed.  --trace 1 runs the batch once on each
   scheduler backend, once more under the self-profiler, and times the
   layers' public functions at the workloads' parameters plus the layer
   ladder.

   Every spec seed derives from --seed; the simulator only ever sees the
   generated specs.  Each run's output is rendered deterministically
   (its sink line without the wall-clock profile); the digest over a
   batch must match across repetitions, backends and the traced pass,
   and for the default seed also the committed perfbench/digests.json.

   Every line of stdout but the last is "name value unit" for people;
   the last is one JSON object {correct, attempted, failed, metrics}. *)

module Runner = Mcc_core.Runner
module Spec = Mcc_core.Spec
module Scenario = Mcc_core.Scenario
module E = Mcc_core.Experiments
module Json = Mcc_core.Json
module Sink = Mcc_core.Sink
module Defaults = Mcc_core.Defaults
module Dumbbell = Mcc_core.Dumbbell
module Matrix = Mcc_attack.Matrix
module Schema = Mcc_workload.Schema
module Topo_gen = Mcc_workload.Topo_gen
module Metrics = Mcc_obs.Metrics
module Profile = Mcc_obs.Profile
module Prof = Mcc_obs.Prof
module Progress = Mcc_obs.Progress
module Timeseries = Mcc_obs.Timeseries
module Scheduler = Mcc_engine.Scheduler
module Sim = Mcc_engine.Sim
module Flid = Mcc_mcast.Flid
module Rlm = Mcc_mcast.Rlm_like
module Rep = Mcc_mcast.Replicated_proto
module Layering = Mcc_mcast.Layering
module Layered = Mcc_delta.Layered
module Threshold = Mcc_delta.Threshold
module Router_agent = Mcc_sigma.Router_agent
module Fec = Mcc_sigma.Fec
module Tuple = Mcc_sigma.Tuple
module Node = Mcc_net.Node
module Topology = Mcc_net.Topology
module Prng = Mcc_util.Prng
module Shamir = Mcc_util.Shamir
module Meter = Mcc_util.Meter

(* Links the workload builder, which registers the Spec.Workload
   implementation the Runner dispatches to. *)
let _workload_impl = Mcc_workload.Build.run

let default_seed = 1
let digests_file = "perfbench/digests.json"

(* --- small helpers ------------------------------------------------------ *)

let clock f = Profile.with_wall_clock f
let sum = List.fold_left ( +. ) 0.
let ratio a b = if Float.equal b 0. then 0. else a /. b

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Spec seeds: distinct per (workload seed, slot) and never 0. *)
let derive seed i = 1 + ((seed * 1_000_003) + (i * 7_919)) land 0xFFFFFF

(* Host nanoseconds per call: [prepare] builds fresh inputs outside the
   timed region, [work] makes [calls] calls on them; median of three. *)
let timed_ns ~calls ~prepare work =
  median
    (List.init 3 (fun _ ->
         let input = prepare () in
         let (), s = clock (fun () -> work input) in
         s *. 1e9 /. float_of_int calls))

(* Interleaves [xs] over [jobs] domains and restores input order.  Used
   for the traced pass: the self-profiler is domain-local, so each
   instrumented run must stay on the domain that runs it. *)
let par_map ~jobs f xs =
  if jobs <= 1 then List.map f xs
  else
    let lanes =
      List.init jobs (fun lane -> List.filteri (fun i _ -> i mod jobs = lane) xs)
    in
    let spawned =
      List.map (fun lane -> Domain.spawn (fun () -> List.map f lane)) (List.tl lanes)
    in
    let first = List.map f (List.hd lanes) in
    let done_lanes = first :: List.map Domain.join spawned in
    List.mapi
      (fun i _ -> List.nth (List.nth done_lanes (i mod jobs)) (i / jobs))
      xs

(* Some layers keep per-domain state that outlives a simulation: the
   transport demultiplexer registers every node it serves in a
   domain-local list and never drops it, so in one long-lived domain each
   scenario built makes the heap, and every later run's garbage
   collection, larger (measured: 1.3 GB resident after 300 set-up passes
   of flid-sweep).  So every timed repetition runs in a child process,
   which starts from the state a new process starts from and runs on a
   single domain, as `mcc run --jobs 1` does.  With a second
   domain idling in Domain.join the matrix took 8% and 21% longer in two
   paired runs: every minor collection then stops both domains.
   [in_children fs] forks one child per [(cpu, f)], all at once, each
   pinned to its CPU, runs [f] in it and returns the results in order (a
   raised exception's text as [Error]); no other domain may be running. *)
external allowed_cpus : unit -> int array = "perfbench_allowed_cpus"
external pin_cpu : int -> bool = "perfbench_pin_cpu"

let in_children (fs : (int option * (unit -> 'a)) list) : ('a, string) result list =
  flush_all ();
  let start (cpu, f) =
    let rd, wr = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
        Unix.close rd;
        Option.iter (fun c -> ignore (pin_cpu c)) cpu;
        let result = match f () with v -> Ok v | exception exn -> Error (Printexc.to_string exn) in
        let oc = Unix.out_channel_of_descr wr in
        Marshal.to_channel oc result [];
        close_out oc;
        Unix._exit 0
    | pid ->
        Unix.close wr;
        (pid, rd)
  in
  let finish (pid, rd) =
    let ic = Unix.in_channel_of_descr rd in
    let result : ('a, string) result =
      match Marshal.from_channel ic with
      | r -> r
      | exception End_of_file -> Error "child process died"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    result
  in
  List.map finish (List.map start fs)

(* The traced pass runs domains of its own, so it isolates each batch
   and layer timing on a fresh domain instead, joined before the next. *)
let isolated f = Domain.join (Domain.spawn f)

(* The slice clock.  [sliced f] runs [f] with the engine's sampling tick
   on, which fires every [slice_dt] simulated seconds from time 0 in each
   simulation built on this domain, and one sampler that stamps the host
   clock.  The stamps split a run's host time into its set-up (from the
   call to the tick at time 0: construction, topology and routes, key
   precompute) and one slice per [slice_dt] of simulated time, a few to
   a few tens of milliseconds each.  Every repetition of a batch does the
   same work in the same slices, so the timed mode takes each slice's
   fastest repetition.  On the shared 2-vCPU host the benchmark was tuned
   on, other tenants slow a CPU-bound loop by up to 2x in bursts of tens
   of milliseconds to minutes: over ten windows, the loop's mean over
   20 s spread 0.13 (quartile spread / median), the sum of 25 ms units'
   fastest of ten tries 0.07.  The tick is an event of its own and is
   taken out of [engine.events]; the simulated system does not see it. *)
let slice_dt = 1.

let sliced f =
  let stamps = ref [] in
  Timeseries.enable ~dt:slice_dt ();
  Timeseries.sample_gauge "perfbench.host_clock" (fun () ->
      stamps := Profile.now () :: !stamps;
      0.);
  let start = Profile.now () in
  let v = Fun.protect ~finally:Timeseries.disable f in
  let stop = Profile.now () in
  (v, Array.of_list ((start :: List.rev !stamps) @ [ stop ]))

let untick stamps =
  let ticks = Array.length stamps - 2 in
  List.map (function
    | ("engine.events" as name), Metrics.Counter n -> (name, Metrics.Counter (n - ticks))
    | m -> m)

(* --- runs and batches ---------------------------------------------------- *)

type run = {
  label : string;
  output : string;  (** deterministic rendering of the run's result *)
  metrics : (string * Metrics.value) list;
  profile : Profile.t;
}

type batch = {
  runs : run list;
  failures : string list;  (** one "label: reason" per failed run *)
  wall_s : float;
}

type traced = { t_batch : batch; prof : Prof.entry list }

(* One run of a timed repetition, with its slice-clock stamps. *)
type sliced_run = { s_run : run; s_failures : string list; stamps : float array }

type pass = {
  parse_s : float;  (** workload-file parse and validation *)
  results : (sliced_run, string) result list;  (** per run, in batch order *)
}

type plan = {
  specs : int;  (** simulations per batch *)
  sim_s : float;  (** simulated seconds per batch *)
  pass : unit -> pass;  (** one timed repetition, on one domain *)
  run : jobs:int -> Scheduler.backend -> batch;
  trace : jobs:int -> traced;
}

let digest runs =
  Digest.to_hex (Digest.string (String.concat "" (List.map (fun r -> r.output) runs)))

let counter metrics name =
  match List.assoc_opt name metrics with
  | Some (Metrics.Counter n) -> n
  | Some _ | None -> 0

let total runs name = List.fold_left (fun acc r -> acc + counter r.metrics name) 0 runs

(* The engine's queue gauges depend on the backend, not the simulated
   system; dropping them keeps outputs identical across backends (the
   Runner does the same for its rows). *)
let without_queue_gauges =
  List.filter (fun (name, _) ->
      not (String.starts_with ~prefix:"engine.queue_capacity" name))

(* --- Runner-driven workloads -------------------------------------------- *)

let render_row (e : Runner.entry) result metrics =
  let buf = Buffer.create 4096 in
  Sink.emit
    (Sink.jsonl (Buffer.add_string buf))
    { Sink.name = e.Runner.name; group = e.Runner.group; spec = e.Runner.spec;
      result; metrics; series = []; profile = None };
  Buffer.contents buf

let raised label exn = label ^ ": raised " ^ Printexc.to_string exn

(* [batch_fn] is Runner.run_batch or Matrix.run; [check] is the
   workload's output check on one result. *)
let runner_plan ~batch_fn ~check ?(parse = fun () -> ()) entries =
  let label (e : Runner.entry) = e.Runner.name in
  let to_run e result metrics profile =
    { label = label e; output = render_row e result metrics; metrics; profile }
  in
  let checked e result =
    match check e.Runner.spec result with
    | None -> []
    | Some why -> [ label e ^ ": " ^ why ]
  in
  let run ~jobs sched =
    let attempt es = batch_fn ~jobs ~sched es in
    let (rows, raised_runs), wall_s =
      clock (fun () ->
          match attempt entries with
          | rows -> (rows, [])
          | exception _ ->
              (* One failing run must not lose the batch: rerun each
                 entry on its own and count only the ones that raise. *)
              List.fold_left
                (fun (rows, errs) e ->
                  match attempt [ e ] with
                  | r -> (rows @ r, errs)
                  | exception exn -> (rows, errs @ [ raised (label e) exn ]))
                ([], []) entries)
    in
    let runs =
      List.map
        (fun (r : Runner.row) -> to_run r.entry r.result r.metrics r.profile)
        rows
    in
    let failures =
      raised_runs
      @ List.concat_map (fun (r : Runner.row) -> checked r.entry r.result) rows
    in
    { runs; failures; wall_s }
  in
  let trace ~jobs =
    let one (e : Runner.entry) =
      match Runner.run_spec_instrumented e.Runner.spec with
      | i -> Ok (e, i)
      | exception exn -> Error (raised (label e) exn)
    in
    let outs = par_map ~jobs one entries in
    let ok = List.filter_map (function Ok x -> Some x | Error _ -> None) outs in
    let runs =
      List.map
        (fun (e, (i : Runner.instrumented)) ->
          to_run e i.i_result i.i_metrics i.i_profile)
        ok
    in
    let failures =
      List.filter_map (function Error m -> Some m | Ok _ -> None) outs
      @ List.concat_map (fun (e, (i : Runner.instrumented)) -> checked e i.i_result) ok
    in
    let wall_s = sum (List.map (fun r -> r.profile.Profile.wall_s) runs) in
    { t_batch = { runs; failures; wall_s };
      prof = List.concat_map (fun (_, (i : Runner.instrumented)) -> i.i_prof) ok }
  in
  (* The timed pass runs each entry as a batch row is made, one at a
     time on this domain. *)
  let pass () =
    let (), parse_s = clock parse in
    let one (e : Runner.entry) =
      match sliced (fun () -> Runner.run_spec_profiled ~sched:Scheduler.heap e.Runner.spec) with
      | (result, metrics, _, profile), stamps ->
          Ok { s_run = to_run e result (untick stamps metrics) profile;
               s_failures = checked e result; stamps }
      | exception exn -> Error (raised (label e) exn)
    in
    { parse_s; results = List.map one entries }
  in
  { specs = List.length entries;
    sim_s = sum (List.map (fun (e : Runner.entry) -> Spec.duration e.Runner.spec) entries);
    pass; run; trace }

let run_batch ~jobs ~sched entries = Runner.run_batch ~jobs ~sched entries
let matrix_batch ~jobs ~sched entries = Matrix.run ~jobs ~sched entries
let no_check _ _ = None

(* flid-sweep: FLID-DS points of Fig. 8d (TCP plus on-off CBR cross
   traffic), the forwarding data path's workload.  Three points span the
   sweep from its largest (18 sessions) to its smallest, longest first so
   two domains finish together.  They run for an eighth of the figure's
   200 s, so one measured run holds about fifty batches and every slice
   of the slice clock that many tries; the traced pass reports the
   scheduler, node and link shares of self time that make the workload
   forwarding-dominated. *)
let sweep_sessions = [ "fig8d-ds-n18"; "fig8d-ds-n10"; "fig8d-ds-n01" ]
let sweep_time_factor = 0.125

let flid_sweep seed =
  let entries =
    List.mapi
      (fun i name ->
        match Runner.lookup name with
        | Some ({ Runner.spec = Spec.Sweep p; _ } as e) ->
            { e with
              Runner.spec =
                Spec.scale_time (Spec.Sweep { p with seed = derive seed i })
                  ~factor:sweep_time_factor }
        | Some _ | None -> failwith ("registry entry missing: " ^ name))
      sweep_sessions
  in
  runner_plan ~batch_fn:run_batch ~check:no_check entries

(* attack-matrix: every strategy against the FLID column, undefended and
   DELTA+SIGMA, at the full horizon (short horizons report false
   breaches).  The scorecard verdict is the check: every defended cell
   contained, every undefended one breached.  The replicated and oversub
   columns would make the batch 15 s, and a run could then hold only
   three repetitions, too few for the fastest-slice figures to settle:
   five runs of the three-column matrix spread 0.26. *)
let matrix_protocols = [ Spec.Flid_ds ]

(* Matrix cell seeds come from workload seeds 1 to 50 whose cells all
   reproduce the scorecard verdict, which is every one but 2: its cell
   seed makes the key-guessing attack breach FLID under DELTA+SIGMA (see
   perfbench/METRICS.md), so it would fail every run that drew it.  Any
   ten consecutive workload seeds map to ten distinct cell seeds. *)
let matrix_seeds = List.filter (fun s -> s <> 2) (List.init 50 (fun i -> i + 1))

let attack_matrix seed =
  let vetted = List.nth matrix_seeds (abs seed mod List.length matrix_seeds) in
  let entries =
    Matrix.entries ~seed:(derive vetted 0) ~attacks:Matrix.default_attacks
      ~protocols:matrix_protocols
      ~defences:[ Spec.Undefended; Spec.Delta_sigma ]
      ()
  in
  let check spec result =
    match (spec, result) with
    | Spec.Adversary p, E.Adversary r -> (
        match (p.Spec.defence, r.E.containment_s) with
        | Spec.Undefended, None | Spec.Delta_sigma, Some _ -> None
        | Spec.Undefended, Some _ -> Some "undefended cell contained"
        | _, _ -> Some "defended cell breached")
    | _ -> Some "not an adversary cell"
  in
  runner_plan ~batch_fn:matrix_batch ~check entries

(* generated-topologies: the committed workload files on generated
   graphs; only this workload exercises Schema, Topo_gen, Churn and
   Build, and multicast graft/prune across many routers. *)
let workload_files =
  [ "workloads/fat_tree_flash_crowd.json"; "workloads/isp_regional_outage.json";
    "workloads/star_lans_diurnal.json" ]

let load_workloads () =
  List.concat_map
    (fun path ->
      match Schema.load ~path with
      | Ok entries -> entries
      | Error msg -> failwith msg)
    workload_files

let generated_topologies seed =
  let entries =
    List.mapi
      (fun i (e : Runner.entry) ->
        match e.Runner.spec with
        | Spec.Workload p ->
            { e with Runner.spec = Spec.Workload { p with seed = derive seed i } }
        | _ -> e)
      (load_workloads ())
  in
  runner_plan ~batch_fn:run_batch ~check:no_check
    ~parse:(fun () -> ignore (load_workloads ()))
    entries

(* --- threshold-keys: direct Scenario runs ------------------------------- *)

(* The shape of the bench's "protocols" figure: FLID-DS, replicated, RLM
   ladder and WEBRC-equation sessions share one SIGMA-guarded bottleneck
   with a TCP flow.  The two RLM-like sessions carry Shamir threshold
   keys, so DELTA's threshold layer and Shamir/GF dominate here.  The
   horizon is the figure's 200 s cut to 60 s so a run holds several
   repetitions. *)
let protocols_horizon = 60.

let build_protocols ?sched ~seed () =
  let t = Scenario.create ~seed ?sched ~bottleneck_rate_bps:1_250_000. () in
  let one () = [ Scenario.receiver () ] in
  let flid = Scenario.add_multicast t ~mode:Flid.Robust ~receivers:(one ()) () in
  let rep = Scenario.add_replicated t ~mode:Flid.Robust ~receivers:(one ()) () in
  let ladder = Scenario.add_rlm t ~mode:Flid.Robust ~receivers:(one ()) () in
  let webrc =
    Scenario.add_rlm ~policy:Rlm.Equation t ~mode:Flid.Robust ~receivers:(one ()) ()
  in
  let tcp = Scenario.add_tcp t in
  let meters () =
    [
      ("flid-ds", Flid.receiver_meter (List.hd flid.Scenario.receivers));
      ("replicated", Rep.receiver_meter (List.hd rep.Scenario.rep_receivers));
      ("rlm-ladder", Rlm.receiver_meter (List.hd ladder.Scenario.rlm_receivers));
      ("webrc-equation", Rlm.receiver_meter (List.hd webrc.Scenario.rlm_receivers));
      ("tcp-reno", Mcc_transport.Tcp.delivered_meter tcp);
    ]
  in
  (t, meters)

(* One direct scenario run with the Runner's per-run metrics protocol:
   reset, run, snapshot, reset.  Only [Scenario.run] is timed.  Returns
   the snapshot, each receiver's goodput and the profile. *)
let direct_run ~horizon ~traced ~sched build =
  Metrics.reset ();
  let t, meters = build ~sched () in
  if traced then Prof.enable ();
  let (), wall_s = clock (fun () -> Scenario.run t ~seconds:horizon) in
  let prof =
    if traced then begin
      let p = Prof.snapshot () in
      Prof.disable ();
      p
    end
    else []
  in
  let snapshot = Metrics.snapshot () in
  Metrics.reset ();
  let queue_capacity =
    match List.assoc_opt "engine.queue_capacity" snapshot with
    | Some (Metrics.Gauge v) -> int_of_float v
    | Some _ | None -> 0
  in
  let metrics = without_queue_gauges snapshot in
  let profile =
    Profile.make ~sched:(Sim.sched_name (Scenario.sim t))
      ?sched_stats:(Profile.take_sched_stats ())
      ~events:(counter metrics "engine.events") ~queue_capacity ~wall_s ()
  in
  let rows =
    List.map
      (fun (name, m) -> (name, Meter.mean_kbps m ~lo:(horizon /. 4.) ~hi:horizon))
      (meters ())
  in
  (metrics, rows, profile, prof)

(* The run's output and its check: every receiver got some goodput. *)
let direct_outcome ~label (metrics, rows, profile, _) =
  let output =
    Json.to_string
      (Json.Obj
         [
           ("name", Json.String label);
           ("kbps", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) rows));
           ("metrics", Metrics.values_json metrics);
         ])
  in
  let failures =
    List.filter_map
      (fun (name, kbps) ->
        if kbps > 0. then None else Some (label ^ ": " ^ name ^ " starved"))
      rows
  in
  ({ label; output; metrics; profile }, failures)

let threshold_keys seed =
  let seed = derive seed 0 in
  let label = "protocols" in
  let build ~sched () = build_protocols ~sched ~seed () in
  let direct ~traced sched = direct_run ~horizon:protocols_horizon ~traced ~sched build in
  let once ~traced sched =
    match direct ~traced sched with
    | (_, _, _, prof) as d ->
        let run, failures = direct_outcome ~label d in
        ({ runs = [ run ]; failures; wall_s = run.profile.Profile.wall_s }, prof)
    | exception exn -> ({ runs = []; failures = [ raised label exn ]; wall_s = 0. }, [])
  in
  let pass () =
    let result =
      match sliced (fun () -> direct ~traced:false Scheduler.heap) with
      | (metrics, rows, profile, prof), stamps ->
          let s_run, s_failures =
            direct_outcome ~label (untick stamps metrics, rows, profile, prof)
          in
          Ok { s_run; s_failures; stamps }
      | exception exn -> Error (raised label exn)
    in
    { parse_s = 0.; results = [ result ] }
  in
  { specs = 1; sim_s = protocols_horizon; pass;
    run = (fun ~jobs:_ sched -> fst (once ~traced:false sched));
    trace =
      (fun ~jobs:_ ->
        let t_batch, prof = once ~traced:true Scheduler.heap in
        { t_batch; prof }) }

(* --- workloads ----------------------------------------------------------- *)

let workloads =
  [
    ("flid-sweep", flid_sweep);
    ("threshold-keys", threshold_keys);
    ("attack-matrix", attack_matrix);
    ("generated-topologies", generated_topologies);
  ]

(* End-to-end timings run the batch on one domain.  With two, the memory
   high-water varied by 20-30% between identical runs (it depends on how
   the domains' collections interleave) and the matrix's wall-time spread
   went from 0.15 to 0.28 on the 2-vCPU host the benchmark was tuned on.
   The per-layer pass runs the Runner workloads on two domains, which is
   what gives the parallel efficiency its meaning and checks that outputs
   do not depend on the job count. *)
let trace_jobs = max 1 (min 2 (Domain.recommended_domain_count ()))
let workload_jobs = function "threshold-keys" -> 1 | _ -> trace_jobs

(* --- per-layer timings of public functions ------------------------------ *)

let layering = Defaults.layering ()
let groups = Defaults.groups
let width = Defaults.key_width

(* Packets group g carries in one slot, as the senders count them. *)
let slot_counts ~slot ~packet_size =
  Array.init groups (fun i ->
      max 1
        (int_of_float
           (Layering.layer_rate layering ~group:(i + 1) *. slot
           /. float_of_int (packet_size * 8))))

let layered_sender prng =
  Layered.sender_create ~prng ~width ~groups ~upgrades:(Array.make groups true)

let delta_layered prng =
  let counts = slot_counts ~slot:Defaults.flid_ds_slot ~packet_size:Defaults.packet_size in
  let per_slot = Array.fold_left ( + ) 0 counts in
  let n = 200 in
  let senders () = List.init n (fun _ -> layered_sender prng) in
  let emit s =
    List.concat
      (List.init groups (fun i ->
           let g = i + 1 in
           List.init counts.(i) (fun k ->
               let c = Layered.next_component s ~group:g ~last:(k = counts.(i) - 1) in
               (g, c, Layered.decrease_field s ~group:g))))
  in
  let fed () =
    List.map
      (fun s ->
        let r = Layered.receiver_create ~groups in
        List.iter
          (fun (g, c, d) -> Layered.on_packet r ~group:g ~component:c ~decrease:d)
          (emit s);
        r)
      (senders ())
  in
  [
    ( "delta.layered.next_component_ns",
      timed_ns ~calls:(n * per_slot) ~prepare:senders
        (List.iter (fun s ->
             Array.iteri
               (fun i c ->
                 for k = 0 to c - 1 do
                   ignore (Layered.next_component s ~group:(i + 1) ~last:(k = c - 1))
                 done)
               counts)) );
    ( "delta.layered.on_packet_ns",
      timed_ns ~calls:(n * per_slot)
        ~prepare:(fun () ->
          List.map (fun s -> (Layered.receiver_create ~groups, emit s)) (senders ()))
        (List.iter (fun (r, packets) ->
             List.iter
               (fun (g, c, d) -> Layered.on_packet r ~group:g ~component:c ~decrease:d)
               packets)) );
    ( "delta.layered.slot_end_ns",
      timed_ns ~calls:n ~prepare:fed
        (List.iter (fun r ->
             ignore
               (Layered.slot_end r ~level:groups ~congested:false
                  ~lost:(fun _ -> false) ~upgrade_to:(fun _ -> false)))) );
  ]

(* The RLM-like sessions' threshold parameters: Defaults' layering at the
   RLM config's slot, packet size and per-level loss tolerances. *)
let rlm_config =
  Rlm.make_config ~id:1 ~base_group:0x7F00 ~layering
    ~slot_duration:Defaults.flid_ds_slot ~mode:Flid.Robust ()

let delta_threshold prng =
  let counts =
    slot_counts ~slot:rlm_config.Rlm.slot_duration ~packet_size:rlm_config.Rlm.packet_size
  in
  let thresholds = Array.init groups (fun i -> Rlm.threshold rlm_config ~level:(i + 1)) in
  let sender () =
    Threshold.sender_create ~prng ~levels:groups ~per_group_counts:counts
      ~loss_thresholds:thresholds
  in
  let packets =
    List.concat (List.init groups (fun i -> List.init counts.(i) (fun k -> (i + 1, k + 1))))
  in
  let total = List.length packets in
  let feed s r =
    List.iter
      (fun (g, k) ->
        Threshold.on_shares r (Threshold.shares_for_packet s ~group:g ~packet_index:k))
      packets
  in
  let pairs () =
    List.init 20 (fun _ ->
        let s = sender () in
        let r = Threshold.receiver_create ~levels:groups in
        feed s r;
        (s, r))
  in
  let failures =
    let s, r = List.hd (pairs ()) in
    List.filter_map
      (fun level ->
        let quorum = Threshold.level_quorum s ~level in
        match Threshold.reconstruct r ~level ~quorum with
        | Some k when k = Threshold.level_key s ~level -> None
        | Some _ | None -> Some (Printf.sprintf "threshold: level %d key not rebuilt" level))
      (List.init groups (fun i -> i + 1))
  in
  let k = Threshold.level_quorum (sender ()) ~level:groups in
  let secret = 123_457 in
  let shamir_failures =
    let shares = Shamir.split prng ~k ~n:total ~secret in
    if Shamir.reconstruct (Array.to_list (Array.sub shares 0 k)) = secret then []
    else [ "shamir: secret not rebuilt" ]
  in
  ( [
      ( "delta.threshold.sender_create_ns",
        timed_ns ~calls:20 ~prepare:ignore (fun () ->
            for _ = 1 to 20 do ignore (sender ()) done) );
      ( "delta.threshold.shares_for_packet_ns",
        timed_ns ~calls:(20 * total)
          ~prepare:(fun () -> List.init 20 (fun _ -> sender ()))
          (List.iter (fun s ->
               List.iter
                 (fun (g, k) ->
                   ignore (Threshold.shares_for_packet s ~group:g ~packet_index:k))
                 packets)) );
      ( "delta.threshold.reconstruct_ns",
        timed_ns ~calls:(20 * groups) ~prepare:pairs
          (List.iter (fun (s, r) ->
               for level = 1 to groups do
                 ignore
                   (Threshold.reconstruct r ~level
                      ~quorum:(Threshold.level_quorum s ~level))
               done)) );
      ( "util.shamir.split_ns",
        timed_ns ~calls:200 ~prepare:ignore (fun () ->
            for _ = 1 to 200 do ignore (Shamir.split prng ~k ~n:total ~secret) done) );
      ( "util.shamir.reconstruct_ns",
        timed_ns ~calls:200
          ~prepare:(fun () ->
            List.init 200 (fun _ ->
                Array.to_list (Array.sub (Shamir.split prng ~k ~n:total ~secret) 0 k)))
          (List.iter (fun shares -> ignore (Shamir.reconstruct shares))) );
    ],
    failures @ shamir_failures )

(* SIGMA's Subscribe handling on a live FLID-DS edge agent, with the
   sender's own keys for a slot the agent holds (valid) and with keys
   off by one bit (rejected); and FEC over one slot of address-key
   tuples at the sender's default scheme. *)
let sigma_layer prng =
  let t = Scenario.create ~seed:5 ~bottleneck_rate_bps:1_000_000. () in
  let session =
    Scenario.add_multicast t ~mode:Flid.Robust ~receivers:[ Scenario.receiver () ] ()
  in
  Scenario.run t ~seconds:5.;
  let agent = Option.get (Scenario.agent t) in
  let db = Scenario.dumbbell t in
  let host =
    List.find
      (fun (n : Node.t) ->
        n.Node.kind = Node.Host
        &&
        match Mcc_net.Multicast.router_of db.Dumbbell.topo n with
        | Some r, _ -> r.Node.id = db.Dumbbell.right.Node.id
        | None, _ -> false)
      (Topology.nodes db.Dumbbell.topo)
  in
  let config = session.Scenario.config in
  let group = Flid.group_addr config 1 in
  let slot_s = config.Flid.slot_duration in
  let accepted () = (Router_agent.stats agent).Router_agent.keys_accepted in
  let subscribe slot key =
    Router_agent.handle_subscribe agent ~receiver:host.Node.id ~slot ~pairs:[ (group, key) ]
  in
  (* Advances the simulation by one slot, which delivers the acks the
     previous calls queued and ages the agent's tallies as a run would,
     then finds a slot whose sender keys the agent accepts now. *)
  let until = ref 5. in
  let step () =
    until := !until +. slot_s;
    Scenario.run t ~seconds:!until;
    let current = int_of_float (!until /. slot_s) in
    List.find_map
      (fun slot ->
        match Flid.sender_keys_for_slot session.Scenario.sender ~slot with
        | None -> None
        | Some keys ->
            let key = keys.Layered.top.(0) in
            let before = accepted () in
            subscribe slot key;
            if accepted () > before then Some (slot, key) else None)
      (List.init 6 (fun i -> current - 2 + i))
  in
  (* A few calls per slot, so each meets the state a Subscribe meets in a
     run: per round, [steps] slots of [per_slot] valid then [per_slot]
     invalid (one bit off) calls; median of three rounds. *)
  let steps = 50 and per_slot = 20 in
  let missed = ref 0 in
  let round () =
    let valid_s = ref 0. and reject_s = ref 0. in
    for _ = 1 to steps do
      match step () with
      | None -> incr missed
      | Some (slot, key) ->
          let timed key =
            snd (clock (fun () -> for _ = 1 to per_slot do subscribe slot key done))
          in
          valid_s := !valid_s +. timed key;
          reject_s := !reject_s +. timed (key lxor 1)
    done;
    let per_call s = s *. 1e9 /. float_of_int (steps * per_slot) in
    (per_call !valid_s, per_call !reject_s)
  in
  let rounds = List.init 3 (fun _ -> round ()) in
  let failures =
    if !missed = 0 then [] else [ "sigma: a slot accepted none of the sender's keys" ]
  in
  let tuples slot =
    let keys = Layered.sender_keys (layered_sender prng) in
    List.init groups (fun i ->
        Tuple.make ~group:(group + i) ~slot
          ~keys:(Layered.valid_keys keys ~group:(i + 1))
          ~minimal:(i = 0))
  in
  let scheme = config.Flid.fec_scheme in
  let encode ts = Fec.encode ~width scheme ~max_per_packet:16 ts in
  let slots = 500 in
  let fec_failures =
    let d = Fec.decoder_create () in
    List.iter (fun c -> ignore (Fec.feed d c)) (encode (tuples 0));
    if Fec.complete d then [] else [ "fec: slot not decoded" ]
  in
  ( [
      ("sigma.subscribe_ns", median (List.map fst rounds));
      ("sigma.subscribe_reject_ns", median (List.map snd rounds));
      ( "sigma.fec.encode_ns",
        timed_ns ~calls:slots
          ~prepare:(fun () -> List.init slots tuples)
          (List.iter (fun ts -> ignore (encode ts))) );
      ( "sigma.fec.decode_ns",
        timed_ns ~calls:slots
          ~prepare:(fun () -> List.init slots (fun s -> encode (tuples s)))
          (List.iter (fun coded ->
               let d = Fec.decoder_create () in
               List.iter (fun c -> ignore (Fec.feed d c)) coded)) );
    ],
    failures @ fec_failures )

(* One pop plus one push at a standing queue of [size] events: the
   steady state of a simulation whose queue high-water is [size]. *)
let push_pop_ns backend ~size ~seed =
  let prng = Prng.create seed in
  let delays = Array.init 4096 (fun _ -> Prng.float prng *. 0.01) in
  let ops = 200_000 in
  timed_ns ~calls:ops
    ~prepare:(fun () ->
      let q = Scheduler.instantiate backend () in
      for i = 0 to size - 1 do
        q.Scheduler.push ~time:delays.(i land 4095) i
      done;
      q)
    (fun q ->
      let cell = ref 0. in
      for i = 1 to ops do
        let v = q.Scheduler.pop_into cell (-1) in
        q.Scheduler.push ~time:(!cell +. delays.(i land 4095)) v
      done)

let workload_layer () =
  let params =
    List.filter_map
      (fun (e : Runner.entry) ->
        match e.Runner.spec with Spec.Workload p -> Some p | _ -> None)
      (load_workloads ())
  in
  let ms f = 1e3 *. median (List.init 5 (fun _ -> snd (clock f))) in
  [
    ("workload.schema_load_ms", ms (fun () -> ignore (load_workloads ())));
    ( "workload.topo_gen_ms",
      ms (fun () ->
          List.iter
            (fun (p : Spec.workload_params) ->
              ignore
                (Topo_gen.build (Sim.create ()) ~prng:(Prng.create p.seed)
                   ~spec:p.topology ~hosts:p.receivers))
            params) );
  ]

(* --- the layer ladder ----------------------------------------------------- *)

(* One dumbbell session per rung, each adding one layer to the rung
   before: the gap between adjacent rungs is that layer's marginal cost
   per event, measured end to end without spans. *)
let ladder_horizon = 30.

let scenario_ns_per_event build =
  median
    (List.init 3 (fun _ ->
         isolated (fun () ->
             Metrics.reset ();
             let t = build () in
             let (), wall = clock (fun () -> Scenario.run t ~seconds:ladder_horizon) in
             let events = Metrics.counter_value (Metrics.counter "engine.events") in
             Metrics.reset ();
             wall *. 1e9 /. float_of_int (max 1 events))))

let sched_ns_per_event () =
  median
    (List.init 3 (fun _ ->
         let sim = Sim.create () in
         let prng = Prng.create 1907 in
         let delays = Array.init 4096 (fun _ -> Prng.float prng *. 0.01) in
         let cursor = ref 0 in
         let rec fire () =
           cursor := (!cursor + 1) land 4095;
           Sim.post_after sim ~delay:delays.(!cursor) fire
         in
         for _ = 1 to 1000 do fire () done;
         let (), wall = clock (fun () -> Sim.run_until sim 2.) in
         Metrics.reset ();
         wall *. 1e9 /. float_of_int (max 1 (Sim.events_executed sim))))

let ladder () =
  let dumbbell ~sigma = Scenario.create ~seed:3 ~sigma ~bottleneck_rate_bps:1_000_000. () in
  let one () = [ Scenario.receiver () ] in
  let rung ~sigma add () =
    let t = dumbbell ~sigma in
    add t;
    t
  in
  [
    ("ladder.sched", sched_ns_per_event ());
    ( "ladder.cbr",
      scenario_ns_per_event
        (rung ~sigma:false (fun t ->
             ignore
               (Scenario.add_onoff_cbr t ~rate_bps:800_000. ~on_period:ladder_horizon
                  ~off_period:1.))) );
    ( "ladder.flid_plain",
      scenario_ns_per_event
        (rung ~sigma:false (fun t ->
             ignore (Scenario.add_multicast t ~mode:Flid.Plain ~receivers:(one ()) ()))) );
    ( "ladder.flid_delta",
      scenario_ns_per_event
        (rung ~sigma:false (fun t ->
             ignore
               (Scenario.add_multicast t ~mode:Flid.Robust ~receiver_mode:Flid.Plain
                  ~receivers:(one ()) ()))) );
    ( "ladder.flid_ds_sigma",
      scenario_ns_per_event
        (rung ~sigma:true (fun t ->
             ignore (Scenario.add_multicast t ~mode:Flid.Robust ~receivers:(one ()) ()))) );
    ( "ladder.rlm_plain",
      scenario_ns_per_event
        (rung ~sigma:false (fun t ->
             ignore (Scenario.add_rlm t ~mode:Flid.Plain ~receivers:(one ()) ()))) );
    (* Threshold keys without SIGMA: the Robust sender generates shares,
       its IGMP receivers still collect them, and no router agent is
       attached (the scenario is built with sigma:false). *)
    ( "ladder.rlm_delta",
      scenario_ns_per_event
        (rung ~sigma:false (fun t ->
             ignore
               (Scenario.add_rlm t ~mode:Flid.Robust ~receiver_mode:Flid.Plain
                  ~receivers:(one ()) ()))) );
    ( "ladder.rlm_threshold",
      scenario_ns_per_event
        (rung ~sigma:true (fun t ->
             ignore (Scenario.add_rlm t ~mode:Flid.Robust ~receivers:(one ()) ()))) );
  ]

(* --- checks ---------------------------------------------------------------- *)

let committed_digest name =
  match In_channel.with_open_bin digests_file In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> (
      match Json.of_string text with
      | Ok json -> Option.bind (Json.member name json) Json.to_string_opt
      | Error _ -> None)

(* Runs of [b] whose output differs from the reference batch's run of
   the same label (a missing run counts as differing). *)
let mismatches ~reference b =
  List.length
    (List.filter
       (fun r ->
         match List.find_opt (fun x -> String.equal x.label r.label) b.runs with
         | Some x -> not (String.equal x.output r.output)
         | None -> true)
       reference.runs)

(* --- reporting --------------------------------------------------------------- *)

let print_metric (name, value, unit) =
  Printf.printf "%-40s %16.6g %s\n" name value unit

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, value, unit) ->
                  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ]))
                metrics) );
       ])

let report ~name ~seed ~digest_ok ~attempted ~failures metrics =
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) failures;
  List.iter print_metric metrics;
  let failed = List.length failures in
  Printf.printf "%-40s %16.6g ratio\n" "failed_ratio"
    (ratio (float_of_int failed) (float_of_int attempted));
  Printf.printf "workload %s seed %d: %d runs, %d failed, digest %s\n" name seed
    attempted failed
    (if digest_ok then "ok" else "MISMATCH");
  print_endline
    (result_line ~correct:(digest_ok && failed = 0 && attempted > 0) ~attempted ~failed
       metrics)

(* A digest check: [digests] must all agree, and with the default seed
   also equal the committed one. *)
let check_digests ~name ~seed digests =
  let first = List.hd digests in
  Printf.printf "digest %s\n" first;
  let agree = List.for_all (String.equal first) digests in
  let committed =
    if seed <> default_seed then true
    else
      match committed_digest name with
      | Some d -> String.equal d first
      | None ->
          Printf.printf "no committed digest for %s in %s\n" name digests_file;
          false
  in
  agree && committed

(* --- the two modes ------------------------------------------------------------ *)

(* The fastest repetition of slice [k] of one run, given each
   repetition's stamps: the host seconds from stamp [k] to stamp [k + 1].
   Slice 0 is the set-up. *)
let fastest stamps k =
  List.fold_left (fun acc s -> Float.min acc (s.(k + 1) -. s.(k))) infinity stamps

(* What the timed mode keeps of one repetition once it is checked: its
   stamps, failures and digest, not its outputs, so the parent's heap,
   and with it every later child's resident set, does not grow with the
   number of repetitions (which grows as the program gets faster). *)
type kept = {
  k_parse_s : float;
  k_stamps : float array option list;  (** per run; [None] if it raised *)
  k_failures : string list;
  k_digest : string;
}

let timed ~name ~seed ~seconds (plan : plan) =
  (* Repetitions run in rounds of one child per CPU (at most two), each
     pinned to its own CPU: other tenants of the host the benchmark was
     tuned on slow one CPU at a time for seconds on end, so every slice
     gets its fastest repetition from whichever CPU was free.  Rounds
     start until [seconds] have passed, at least three. *)
  let cpus = allowed_cpus () in
  let lanes = max 1 (min 2 (Array.length cpus)) in
  let cpu_of i = if Array.length cpus = 0 then None else Some cpus.(i mod Array.length cpus) in
  let deadline = Profile.now () +. seconds in
  (* The first repetition's batch is the reference every later one is
     compared with as it arrives. *)
  let first = ref None in
  let keep p =
    let b =
      { runs = List.filter_map (function Ok s -> Some s.s_run | Error _ -> None) p.results;
        failures = []; wall_s = 0. }
    in
    let reference = match !first with Some r -> r | None -> first := Some b; b in
    { k_parse_s = p.parse_s;
      k_stamps = List.map (function Ok s -> Some s.stamps | Error _ -> None) p.results;
      k_failures =
        List.concat_map (function Ok s -> s.s_failures | Error msg -> [ msg ]) p.results
        @ List.init (mismatches ~reference b) (fun _ -> "output differs between repetitions");
      k_digest = digest b.runs }
  in
  let rec repeat round acc =
    if round >= 3 && Profile.now () >= deadline then List.rev acc
    else begin
      (* Every round starts from a collected heap, so the memory
         high-water does not depend on when the collector last ran. *)
      Gc.compact ();
      let kept =
        List.map
          (function Ok p -> keep p | Error msg -> failwith msg)
          (in_children (List.init lanes (fun lane -> (cpu_of lane, plan.pass))))
      in
      repeat (round + 1) (List.rev_append kept acc)
    end
  in
  let passes = repeat 0 [] in
  let reps = List.length passes in
  let reference = Option.get !first in
  (* Each run's stamps over the repetitions, for the runs that completed
     in every repetition with the same number of slices. *)
  let stamps, uneven =
    List.partition
      (fun ss -> List.for_all (fun s -> Array.length s = Array.length (List.hd ss)) ss)
      (List.filter_map
         (fun i ->
           let column = List.map (fun k -> List.nth k.k_stamps i) passes in
           if List.for_all Option.is_some column then Some (List.map Option.get column)
           else None)
         (List.init (List.length (List.hd passes).k_stamps) Fun.id))
  in
  let failures =
    List.concat_map (fun k -> k.k_failures) passes
    @ List.map (fun _ -> "slice count differs between repetitions") uneven
  in
  let digest_ok = check_digests ~name ~seed (List.map (fun k -> k.k_digest) passes) in
  let run_s ss = sum (List.init (Array.length (List.hd ss) - 2) (fun k -> fastest ss (k + 1))) in
  let setup_s =
    List.fold_left Float.min infinity (List.map (fun k -> k.k_parse_s) passes)
    +. sum (List.map (fun ss -> fastest ss 0) stamps)
  in
  let wall_s = sum (List.map run_s stamps) in
  let whole s = s.(Array.length s - 1) -. s.(0) in
  Printf.printf "events per batch %d\n" (total reference.runs "engine.events");
  Printf.printf "repetitions %d, batch host seconds each: %s\n" reps
    (String.concat " "
       (List.map
          (fun k -> Printf.sprintf "%.4f" (sum (List.map whole (List.filter_map Fun.id k.k_stamps))))
          passes));
  if List.length reference.runs = List.length stamps then
    List.iter2
      (fun (r : run) ss ->
        let lane i = List.filteri (fun j _ -> j mod lanes = i) ss in
        Printf.printf "run %s: %d slices, fastest per slice: set-up %.4f s, run %.4f s%s\n"
          r.label (Array.length (List.hd ss) - 1) (fastest ss 0) (run_s ss)
          (String.concat ""
             (List.init lanes (fun i ->
                  match cpu_of i with
                  | Some c -> Printf.sprintf "; on CPU %d alone %.4f s" c (run_s (lane i))
                  | None -> ""))))
      reference.runs stamps;
  report ~name ~seed ~digest_ok ~attempted:(plan.specs * reps) ~failures
    [
      ("wall_s", wall_s, "s");
      ("sim_s_per_wall_s", plan.sim_s /. wall_s, "s/s");
      ("setup_s", setup_s, "s");
    ]

let prof_self prof name =
  List.fold_left
    (fun (count, self) (e : Prof.entry) ->
      match List.rev e.Prof.path with
      | last :: _ when String.equal last name -> (count + e.Prof.count, self +. e.Prof.self_s)
      | _ -> (count, self))
    (0, 0.) prof

let traced_mode ~name ~seed (plan : plan) =
  let jobs = workload_jobs name in
  let heap = isolated (fun () -> plan.run ~jobs Scheduler.heap) in
  let wheel = isolated (fun () -> plan.run ~jobs Scheduler.wheel) in
  let monitor = Progress.start ~interval:0.5 ~total:1 ~on_progress:ignore () in
  let traced = isolated (fun () -> plan.trace ~jobs) in
  let gc = Progress.stop monitor in
  let t = traced.t_batch in
  let runs = heap.runs in
  let digest_ok = check_digests ~name ~seed [ digest runs; digest wheel.runs; digest t.runs ] in
  let events = total runs "engine.events" in
  let fevents = float_of_int (max 1 events) in
  let prof = traced.prof in
  let per_event (_, self) = self *. 1e9 /. fevents in
  let per_call (count, self) = ratio (self *. 1e9) (float_of_int count) in
  let share (_, self) = ratio self (Prof.self_total prof) in
  let stats =
    List.filter_map (fun r -> r.profile.Profile.sched_stats) runs
  in
  let queue_max =
    List.fold_left (fun acc (s : Profile.sched_stats) -> max acc s.Profile.max_size) 1 stats
  in
  let pool_hits = List.fold_left (fun a (s : Profile.sched_stats) -> a + s.Profile.pool_hits) 0 stats in
  let pool_misses = List.fold_left (fun a (s : Profile.sched_stats) -> a + s.Profile.pool_misses) 0 stats in
  let run_walls = List.map (fun r -> r.profile.Profile.wall_s) runs in
  let summed = sum run_walls in
  let enqueues = total runs "link.enqueues" and drops = total runs "link.drops" in
  let accepted = total runs "sigma.keys_accepted" and rejected = total runs "sigma.keys_rejected" in
  let flid_slots = total runs "flid.slots" in
  let count n = float_of_int n in
  let prng = Prng.create (derive seed 99) in
  let threshold_metrics, threshold_failures = delta_threshold prng in
  let sigma_metrics, sigma_failures =
    isolated (fun () -> sigma_layer (Prng.create (derive seed 98)))
  in
  let with_unit unit = List.map (fun (n, v) -> (n, v, unit)) in
  let metrics =
    [
      ("engine.events", count events, "count");
      ("engine.events_per_s", fevents /. summed, "1/s");
      ("engine.sched.self_ns_per_event", per_event (prof_self prof "engine.sched"), "ns");
      ("engine.loop.self_ns_per_event", per_event (prof_self prof "engine"), "ns");
      ("engine.sched.self_share", share (prof_self prof "engine.sched"), "ratio");
      ("engine.queue_max", count queue_max, "count");
      ("engine.heap.push_pop_ns", push_pop_ns Scheduler.heap ~size:queue_max ~seed, "ns");
      ("engine.wheel.push_pop_ns", push_pop_ns Scheduler.wheel ~size:queue_max ~seed, "ns");
      ("engine.wheel_over_heap", wheel.wall_s /. heap.wall_s, "ratio");
      ( "engine.timer_pool_hit_ratio",
        ratio (count pool_hits) (count (pool_hits + pool_misses)),
        "ratio" );
      ("net.link.calls", count (fst (prof_self prof "link")), "count");
      ("net.link.self_ns_per_call", per_call (prof_self prof "link"), "ns");
      ("net.node.calls", count (fst (prof_self prof "node")), "count");
      ("net.node.self_ns_per_call", per_call (prof_self prof "node"), "ns");
      ("net.link.self_share", share (prof_self prof "link"), "ratio");
      ("net.node.self_share", share (prof_self prof "node"), "ratio");
      ("net.link.enqueues", count enqueues, "count");
      ("net.link.drops", count drops, "count");
      ("net.link.marks", count (total runs "link.marks"), "count");
      ("net.drop_ratio", ratio (count drops) (count (enqueues + drops)), "ratio");
      ("mcast.flid.slots", count flid_slots, "count");
      ( "mcast.flid.self_ns_per_slot",
        ratio (snd (prof_self prof "flid") *. 1e9) (count flid_slots),
        "ns" );
      ("mcast.rlm.slots", count (total runs "rlm.slots"), "count");
      ("mcast.rep.slots", count (total runs "rep.slots"), "count");
    ]
    @ with_unit "ns" (delta_layered prng)
    @ with_unit "ns" threshold_metrics
    @ [ ("sigma.self_ns_per_call", per_call (prof_self prof "sigma"), "ns") ]
    @ with_unit "ns" sigma_metrics
    @ [
        ("sigma.keys_accepted", count accepted, "count");
        ("sigma.keys_rejected", count rejected, "count");
        ("sigma.lockouts", count (total runs "sigma.lockouts"), "count");
        ("sigma.reject_ratio", ratio (count rejected) (count (accepted + rejected)), "ratio");
        ("attack.self_ns_per_call", per_call (prof_self prof "attack"), "ns");
        ("attack.submissions", count (total runs "attack.submissions"), "count");
        ("transport.tcp.retransmits", count (total runs "tcp.retransmits"), "count");
      ]
    @ with_unit "ms" (workload_layer ())
    @ [
        ( "runner.parallel_efficiency",
          summed /. (float_of_int jobs *. heap.wall_s),
          "ratio" );
        ("runner.run_p50_s", median run_walls, "s");
        ("runner.run_max_s", List.fold_left Float.max 0. run_walls, "s");
        ("obs.trace_overhead", t.wall_s /. summed, "ratio");
        ("obs.prof_coverage", Prof.self_total prof /. t.wall_s, "ratio");
        ( "gc.minor_words_per_event",
          sum (List.map (fun (e : Prof.entry) -> e.Prof.alloc_w) prof) /. fevents,
          "words" );
        ( "gc.top_heap_mb",
          float_of_int (gc.Progress.top_heap_words * (Sys.word_size / 8)) /. 1e6,
          "MB" );
      ]
    @ with_unit "ns" (ladder ())
  in
  let outputs_differ =
    List.init (mismatches ~reference:heap wheel) (fun _ -> "output differs under the wheel")
    @ List.init (mismatches ~reference:heap t) (fun _ -> "output differs when traced")
  in
  report ~name ~seed ~digest_ok
    ~attempted:(List.length heap.runs + List.length wheel.runs + List.length t.runs)
    ~failures:
      (heap.failures @ wheel.failures @ t.failures @ outputs_differ
     @ threshold_failures @ sigma_failures)
    metrics

(* --- command line -------------------------------------------------------------- *)

let usage () =
  prerr_endline
    ("usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
      workloads: "
    ^ String.concat ", " (List.map fst workloads));
  exit 2

let () =
  let rec parse (w, seed, seconds, trace) = function
    | [] -> (w, seed, seconds, trace)
    | "--workload" :: v :: rest -> parse (Some v, seed, seconds, trace) rest
    | "--seed" :: v :: rest -> parse (w, int_of_string v, seconds, trace) rest
    | "--seconds" :: v :: rest -> parse (w, seed, float_of_string v, trace) rest
    | "--trace" :: v :: rest -> parse (w, seed, seconds, int_of_string v <> 0) rest
    | _ -> usage ()
  in
  let w, seed, seconds, trace =
    match parse (None, default_seed, 10., false) (List.tl (Array.to_list Sys.argv)) with
    | v -> v
    | exception Failure _ -> usage ()
  in
  match Option.bind w (fun name -> List.assoc_opt name workloads) with
  | None -> usage ()
  | Some prepare ->
      let name = Option.get w in
      let plan = prepare seed in
      if trace then traced_mode ~name ~seed plan else timed ~name ~seed ~seconds plan
