(** Run profile: how fast the event loop went, and how much it
    allocated.

    [events] and [queue_capacity] come from the simulation (via the
    "engine.events" counter and "engine.queue_capacity" gauge the engine
    maintains) and are deterministic; [wall_s] and [events_per_sec] are
    wall-clock measurements and vary run to run.  [minor_words] repeats
    exactly for a spec on the same toolchain, except that the first run
    on a fresh domain reads a few hundred words more.  {!to_json} renders
    [wall_s] and everything after it last — even when {!sched_stats}
    render — so deterministic prefixes can be compared byte-for-byte. *)

(** Scheduler-backend introspection, published by the engine at run
    end.  All counts are of simulated work and therefore
    deterministic.  Heap backends use [pushes]/[max_size]/[capacities]
    (the capacity trajectory, growth by growth); wheel backends
    additionally fill the bucket-placement histogram [level_places]
    (one bin per wheel level), [overflow], [drain_inserts] and the
    cell free-list hit/miss counters.  [pool_hits]/[pool_misses] are
    the engine's timer-handle pool. *)
type sched_stats = {
  pushes : int;  (** events pushed over the run *)
  max_size : int;  (** queue size high-water, in events *)
  capacities : int list;  (** storage capacity after each growth, first to last *)
  level_places : int list;  (** wheel: placements per level; [[]] for heap *)
  overflow : int;  (** wheel: events placed beyond the horizon *)
  drain_inserts : int;  (** wheel: pushes landing on the draining tick *)
  free_hits : int;  (** wheel: cells recycled from the free list *)
  free_misses : int;  (** wheel: cells newly allocated *)
  pool_hits : int;  (** engine: timer handles reused from the pool *)
  pool_misses : int;  (** engine: timer handles freshly allocated *)
}

type t = {
  sched : string;  (** scheduler backend the run executed on *)
  events : int;  (** event-loop callbacks fired *)
  queue_capacity : int;  (** event-queue allocation high-water, in slots *)
  sched_stats : sched_stats option;  (** backend probe, when the engine published one *)
  wall_s : float;
  events_per_sec : float;
  minor_words : int option;
      (** words the run allocated on its domain's minor heap, when
          measured ({!measure}) *)
}

val make :
  ?sched:string ->
  ?sched_stats:sched_stats ->
  ?minor_words:int ->
  events:int ->
  queue_capacity:int ->
  wall_s:float ->
  unit ->
  t
(** Derives [events_per_sec] (0 when [wall_s] is 0).  [sched] defaults
    to ["heap"], the engine's default backend. *)

val now : unit -> float
(** Host wall clock, in seconds.  The one sanctioned direct read (see
    {!with_wall_clock}); the only other caller is {!Prof}, which needs
    per-span timestamps rather than one bracketed measurement. *)

val with_wall_clock : (unit -> 'a) -> 'a * float
(** [with_wall_clock f] runs [f] and returns its result paired with the
    elapsed wall-clock seconds.  This is the one sanctioned host-clock
    read in the tree (the lint [wall-clock] rule forbids
    [Unix.gettimeofday]/[Sys.time] everywhere else): simulation code
    measures time on the simulated clock only, and profiling callers go
    through here rather than touching [Unix] directly. *)

val measure : (unit -> 'a) -> 'a * float * int
(** [measure f] is {!with_wall_clock} that also returns the words [f]
    allocated on this domain's minor heap.  The lint [gc-stats] rule
    keeps GC reads in this library; the runner's profiles and its
    progress meter take the count from here. *)

val sched_stats_to_json : sched_stats -> Json.t
val to_json : t -> Json.t
val pp : Format.formatter -> t -> unit

val note_sched_stats : sched_stats -> unit
(** Called by the engine when a run's metrics flush: parks this
    domain's backend stats for {!take_sched_stats}. *)

val take_sched_stats : unit -> sched_stats option
(** Takes (and clears) the stats {!note_sched_stats} parked on this
    domain, if any. *)
