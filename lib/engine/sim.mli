(** Discrete-event simulation driver: a virtual clock plus an event
    queue of callbacks.  All network components schedule their work
    through one [Sim.t], so a run is single-threaded and deterministic. *)

type t

type handle
(** A scheduled event that can be cancelled. *)

val create : ?sched:Scheduler.backend -> unit -> t
(** A fresh sim with an empty queue at clock 0, on the given scheduler
    backend (default: this domain's {!Scheduler.default}, initially the
    heap).  Every backend fires the same events in the same order — see
    {!Scheduler} — so [?sched] is a performance knob only.

    If this domain has time-series sampling enabled
    ({!Mcc_obs.Timeseries.enable}), the sim installs a periodic task at
    the configured [dt] that feeds [Timeseries.sample_all] with the
    simulated clock, so sampled series are deterministic in simulated
    time, not wall clock. *)

val now : t -> float
(** Current simulated time in seconds. *)

val sched_name : t -> string
(** {!Scheduler.backend_name} of the backend this sim runs on. *)

val schedule : t -> at:float -> (unit -> unit) -> handle
(** Schedule a callback at absolute time [at].
    @raise Invalid_argument if [at] is in the past. *)

val schedule_after : t -> delay:float -> (unit -> unit) -> handle
(** Schedule a callback [delay] seconds from now ([delay >= 0]). *)

val post : t -> at:float -> (unit -> unit) -> unit
(** Fire-and-forget {!schedule}: no handle is returned, so the event
    cannot be cancelled — in exchange the sim recycles the internal
    event record through a pool, making steady-state scheduling
    allocation-free.  Semantically identical to
    [ignore (schedule t ~at f)] otherwise (same ordering, same
    validation). *)

val post_after : t -> delay:float -> (unit -> unit) -> unit
(** Fire-and-forget {!schedule_after}. *)

val post_train :
  t -> count:int -> at:float -> spacing:float -> (int -> unit) -> unit
(** [post_train t ~count ~at ~spacing f] fires [f 0], ..., [f (count-1)],
    element [i] at [at +. (float_of_int i *. spacing)].  Each element
    fires exactly where the [i]-th of [count] {!post}s made now would
    fire, ties included: the train takes those [count] keys up front
    ({!Scheduler.S.reserve}) but queues only the next element, so the
    queue holds one entry per train.  Each element counts as one
    executed event.
    @raise Invalid_argument if [count < 0], if [at] is in the past, or if
    [spacing] is negative or not finite (the times would decrease). *)

val cancel : handle -> unit
(** Cancelling a fired or already-cancelled event is a no-op. *)

val cancelled : handle -> bool

type timer
(** A re-armable one-shot timer: one pending expiry that can be moved
    or withdrawn.  It fires exactly where a {!schedule} made at the last
    {!arm} would fire, with every earlier arm {!cancel}led, but without
    leaving a cancelled entry in the queue per re-arm: its one queued
    entry, if it pops before the armed time, re-queues itself under the
    armed key.  Such a pop, like a cancelled one, is not an executed
    event. *)

val timer : t -> timer
(** A fresh, disarmed timer on this sim. *)

val arm : timer -> at:float -> (unit -> unit) -> unit
(** [arm tm ~at f] makes [f] the timer's next expiry, at [at], replacing
    any pending one.  It takes the key [schedule t ~at f] would take now.
    @raise Invalid_argument if [at] is in the past. *)

val disarm : timer -> unit
(** Withdraws the pending expiry, if any.  Idempotent. *)

val every : t -> start:float -> period:float -> (unit -> unit) -> handle
(** Periodic task: fires at [start], [start+period], ...  Cancelling the
    returned handle stops future firings.  @raise Invalid_argument if
    [period <= 0]. *)

val run_until : t -> float -> unit
(** Execute events in time order until the queue is empty or the next
    event is later than the horizon; the clock ends at the horizon.
    The loop allocates nothing per event: each pop writes its time
    into a flat {!Scheduler.cell}. *)

val run : t -> unit
(** Execute until the queue drains.  Periodic tasks never drain, so most
    callers want [run_until]. *)

val events_executed : t -> int
(** Total callbacks fired so far (observability / benchmarks). *)

val queue_capacity : t -> int
(** Event-queue allocation high-water in slots ({!Scheduler.S.capacity}
    of the backend); the "max heap depth" figure of a run profile.

    [run] and [run_until] also publish both counts to this domain's
    {!Mcc_obs.Metrics} registry on return: the "engine.events" counter,
    the backend-neutral "engine.queue_capacity" gauge, and the
    per-backend "engine.queue_capacity.heap" / "engine.queue_capacity.wheel"
    gauge for whichever backend the sim runs on.  They additionally park
    the backend's {!Scheduler.S.stats} probe — with this sim's
    timer-handle pool hit/miss counters merged in — via
    {!Mcc_obs.Profile.note_sched_stats} for the run-profile builder; and
    when {!Mcc_obs.Prof} is collecting, the event loop runs an
    instrumented variant attributing pop time to the "engine.sched" span
    under "engine" (selected once at entry, so the disabled path is the
    unmodified loop). *)
