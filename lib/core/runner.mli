(** Experiment registry and multicore batch runner.

    Every figure of the paper's evaluation, and every extension and
    ablation study, is registered here as one or more named {!Spec.t}
    values — sweeps (Figures 8a–8d, 9a, 9b) and studies are split into
    one spec per point, so a batch parallelises across its
    whole surface.  [run_batch] executes a batch across OCaml 5 domains:
    each run is fully isolated (its own [Sim.t], PRNG, meters — the
    simulator keeps no cross-run mutable globals), results land in a
    slot per entry, and sinks are fed strictly in entry order after the
    batch completes.  Serial and parallel executions of the same batch
    therefore produce byte-identical sink output. *)

type entry = {
  name : string;  (** unique, e.g. "fig8a-n04" *)
  group : string;  (** the figure it belongs to, e.g. "fig8a" *)
  doc : string;
  spec : Spec.t;
}

val all : unit -> entry list
(** Every registered experiment, in figure order. *)

val groups : unit -> string list
(** The distinct group names, in figure order. *)

val find : string -> entry list
(** Entries whose [name] or [group] equals the argument ([] if none). *)

val lookup : string -> entry option
(** Exact-name lookup. *)

val run_spec : Spec.t -> Experiments.result
(** Alias of {!Experiments.run}: one isolated simulation. *)

val run_specs :
  ?jobs:int ->
  ?sched:Mcc_engine.Scheduler.backend ->
  Spec.t list ->
  Experiments.result list
(** Executes the specs on up to [jobs] domains (default 1; capped at
    the spec count).  Results are returned in input order regardless of
    completion order.  If a run raises, the exception is re-raised
    after the batch drains.

    [sched] selects the event-scheduler backend for every run.  It is
    applied as the domain-local {!Mcc_engine.Scheduler.set_default}
    inside each worker — worker domains start from a fresh default, so
    setting it before spawning would not reach them — and restored
    afterwards.  Backends fire identical schedules
    ({!Mcc_engine.Scheduler}), so results do not depend on the choice. *)

val run_spec_profiled :
  ?sched:Mcc_engine.Scheduler.backend ->
  ?sample_dt:float ->
  Spec.t ->
  Experiments.result * (string * Mcc_obs.Metrics.value) list
  * (string * (float * float) list) list
  * Mcc_obs.Profile.t
(** One isolated run bracketed by the per-run metrics protocol: the
    domain's registry is reset, a catalog of every metric the simulator
    can emit is preregistered (so snapshots share one schema across
    specs — a Plain-mode run still lists the sigma.* counters, at
    zero), the spec runs, and the snapshot plus an event-loop profile
    are returned with the registry reset again.  [sched] behaves as in
    {!run_specs}; the profile records the backend name the run executed
    on.  With [sample_dt],
    time-series sampling ({!Mcc_obs.Timeseries}) is enabled at that
    period for the duration of the run and the recorded series (sorted
    by name) are the third component; without it the series list is
    empty and sampling costs nothing.  Snapshots and series are fully
    deterministic; only the profile's wall-clock fields vary between
    executions, and its minor-word count on a domain's first run. *)

val run_specs_profiled :
  ?jobs:int ->
  ?sched:Mcc_engine.Scheduler.backend ->
  ?sample_dt:float ->
  Spec.t list ->
  (Experiments.result * (string * Mcc_obs.Metrics.value) list
   * (string * (float * float) list) list
   * Mcc_obs.Profile.t)
  list
(** {!run_spec_profiled} with the scheduling of {!run_specs}.  Each
    domain's metrics registry and series store are domain-local, and
    sampling is switched on inside the worker, so parallel runs cannot
    bleed counts into each other and [--jobs N] series are
    byte-identical to serial ones. *)

type instrumented = {
  i_result : Experiments.result;
  i_metrics : (string * Mcc_obs.Metrics.value) list;
  i_profile : Mcc_obs.Profile.t;
  i_prof : Mcc_obs.Prof.entry list;  (** self-profiler component tree *)
  i_lineage : Mcc_obs.Lineage.summary;  (** per-hop latency + case log *)
}

val run_spec_instrumented :
  ?sched:Mcc_engine.Scheduler.backend ->
  ?sample_dt:float ->
  Spec.t ->
  instrumented
(** {!run_spec_profiled} with the {!Mcc_obs.Prof} self-profiler and
    {!Mcc_obs.Lineage} packet-lineage collection enabled for the run
    (both are restored to off before returning).  The whole experiment
    executes under a root "run" span, so the snapshot's self times sum
    to the span-covered share of the measured wall time.  Prof and
    Lineage state is domain-local; the run and both snapshots happen on
    the calling domain, which is why there is no batch variant — [mcc
    profile] runs one entry at a time. *)

type row = {
  entry : entry;
  result : Experiments.result;
  metrics : (string * Mcc_obs.Metrics.value) list;
  series : (string * (float * float) list) list;
  profile : Mcc_obs.Profile.t;
}

val run_batch :
  ?jobs:int ->
  ?sched:Mcc_engine.Scheduler.backend ->
  ?sample_dt:float ->
  ?sinks:Sink.t list ->
  ?on_progress:(Mcc_obs.Progress.sample -> unit) ->
  ?progress_interval:float ->
  entry list ->
  row list
(** {!run_specs_profiled} over a batch of registry entries; after all
    runs complete, each row is emitted to every sink in entry order.
    The caller retains ownership of the sinks (they are not closed).

    With [on_progress], a {!Mcc_obs.Progress} monitor watches the sweep:
    workers report each finished cell and the callback receives periodic
    samples (every [progress_interval] seconds, default 0.2) plus one
    final sample when the batch drains.  The callback fires at
    host-timing-dependent moments on the monitor domain, so it must only
    drive ephemeral output (the CLI's stderr meter) — sink output is fed
    after the batch in entry order and stays byte-identical whether or
    not a monitor is attached, for any [jobs]. *)
