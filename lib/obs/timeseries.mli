(** Sampled time series: bounded, domain-local [(time, value)] streams
    recorded while a simulation runs, giving the point-in-time metrics
    of {!Metrics} a time dimension.

    Sampling is opt-in per run.  Components register samplers (or call
    {!record}) unconditionally; until {!enable} is called in the current
    domain every entry point is a cheap no-op, so uninstrumented runs
    pay nothing.  The periodic clock lives in the engine: [Sim.create]
    consults {!dt} and drives {!sample_all} through its own event queue,
    which keeps this module free of any engine dependency and makes the
    sample times simulated (deterministic), not wall clock.

    All state is domain-local, mirroring {!Metrics}: a parallel batch
    worker samples exactly the runs it executes, and series never need
    locks.  The standard per-run protocol (used by [Runner]) is
    [enable ~dt] → run → {!snapshot} → {!disable}. *)

val enable : dt:float -> unit -> unit
(** Turn on sampling in this domain at period [dt] simulated seconds.
    Each series stops growing after 65536 samples; further points
    count into {!dropped}.
    @raise Invalid_argument if [dt] is not finite and positive. *)

val disable : unit -> unit
(** Turn sampling off and discard all samplers and series. *)

val enabled : unit -> bool

val dt : unit -> float option
(** The configured sampling period, [None] when disabled.  [Sim.create]
    reads this to decide whether to install its sampling tick. *)

val sample_gauge : string -> (unit -> float) -> unit
(** Register an instantaneous reading (queue depth, subscription level)
    to be recorded every tick.  No-op when sampling is disabled.  If the
    name is already taken by another sampler, a ["#2"], ["#3"], ...
    suffix is appended deterministically. *)

val sample_rate : ?scale:float -> string -> (unit -> float) -> unit
(** Register a cumulative reading (bytes, drops); each tick records the
    per-second first difference times [scale] (default 1.), e.g.
    [~scale:0.008] turns cumulative bytes into kbit/s.  The baseline is
    the reading at registration time.  No-op when disabled. *)

val record : string -> time:float -> value:float -> unit
(** Append one event-driven point (e.g. a SIGMA eviction) outside the
    periodic tick.  Times must be non-decreasing per name.  No-op when
    sampling is disabled. *)

val sample_all : time:float -> unit
(** Record one sample of every registered sampler, in registration
    order, at simulated time [time].  Called by the engine's tick. *)

val snapshot : unit -> (string * (float * float) list) list
(** All series recorded so far, sorted by name. *)

val snapshot_json : (string * (float * float) list) list -> Json.t
(** [{"name": [[t, v], ...], ...}] — the shape the series sinks emit
    and [mcc report] parses back. *)

val dropped : unit -> int
(** Points discarded because a series hit its 65536-sample bound. *)

val reset : unit -> unit
(** Discard all samplers and series but keep sampling enabled. *)
