(** Pluggable event-scheduler backends for the simulation engine.

    Every backend is a priority queue keyed by [(time, seq)]: events pop
    in time order, and events pushed with equal times pop first-in
    first-out.  That contract is exact — all backends produce
    byte-identical pop sequences for the same push/pop interleaving — so
    the backend choice is purely a performance knob and never a
    semantics knob.  {!Sim.create} selects a backend per simulation; the
    [--sched heap|wheel] CLI flag and the batch drivers route through
    {!set_default}. *)

(** Interface every backend implements. *)
module type S = sig
  val name : string
  (** Stable identifier ("heap", "wheel") used by [--sched], profiles,
      and the per-backend capacity gauge. *)

  type 'a t

  val create : unit -> 'a t
  val is_empty : 'a t -> bool
  val size : 'a t -> int

  val push : 'a t -> time:float -> 'a -> unit
  (** @raise Invalid_argument on a NaN time (every backend), or on a
      negative time for backends that quantise to non-negative integer
      ticks ({!Wheel}). *)

  val peek_time : 'a t -> float option
  (** Earliest event time, if any. *)

  val pop : 'a t -> (float * 'a) option
  (** Removes and returns the earliest event; ties pop in push order. *)

  val pop_into : 'a t -> float ref -> 'a -> 'a
  (** [pop_into t cell default] pops the earliest event, writing its
      time into [cell] and returning its value, or returns [default]
      with [cell] untouched when empty.  Same order as {!pop}, but
      allocation-free: the time lands in the ref's unboxed float field
      and no option or tuple is built.  {!Sim}'s per-event loop runs on
      this with a sentinel as [default]. *)

  val next_before : 'a t -> float -> bool
  (** [next_before t bound] is true iff the queue is non-empty and the
      earliest time is [<= bound] — {!peek_time} for bounded run loops,
      without the option/boxed-float allocation. *)

  val pop_before : 'a t -> float ref -> bound:float -> 'a -> 'a
  (** [pop_before t cell ~bound default] is {!pop_into} restricted to
      events at time [<= bound]: pops and returns the earliest such
      event, or returns [default] with [cell] untouched when the queue
      is empty or its earliest event lies beyond the bound.  Fuses the
      {!next_before}/{!pop_into} pair of a bounded run loop into one
      call so the hot path peeks the key exactly once per event. *)

  val clear : 'a t -> unit
  (** Empties the queue and restores it to its freshly-created state:
      tie-break sequence numbers restart from zero and dynamically grown
      storage is dropped, so a queue reused across many batch runs
      carries neither unbounded sequence numbers nor the high-water-mark
      allocation. *)

  val capacity : 'a t -> int
  (** Current backing allocation in slots (observability / tests).  For
      {!Heap} this is the parallel-array length (0 after [create] or
      [clear] — storage is lazily allocated on first push); for {!Wheel}
      it is the fixed slot-table size plus the cell store's high-water
      mark. *)

  val stats : 'a t -> Mcc_obs.Profile.sched_stats
  (** Backend introspection since the last [create]/[clear]: pushes,
      size high-water and the capacity trajectory for every backend;
      {!Wheel} additionally fills the per-level bucket-placement
      histogram (cascade re-placements included), overflow placements,
      draining-tick inserts and cell free-list hit/miss counters.  All
      counts are of simulated work, so they are deterministic for a
      deterministic schedule.  The engine-side [pool_hits]/[pool_misses]
      fields are 0 here; {!Sim} fills them in before publishing the
      record through {!Mcc_obs.Profile.note_sched_stats}. *)
end

module Heap : S
(** 4-ary min-heap over unboxed parallel arrays ([float array] times,
    [int array] seqs, ['a array] values; the children of slot [i] are
    [4i+1 .. 4i+4]): O(log n) push/pop, zero allocation per operation
    outside the amortised storage doubling.  Sifts move a hole rather
    than swapping: the element being placed waits (push holds it in its
    arguments, pop leaves it staged in the slot just past the shrunken
    tree) while parents or children shift into the hole, so each level
    costs one [values] store, and the tree is half as deep as a binary
    one.  No extra slot is reserved, so {!S.capacity} and its growth
    points are those of a plain array heap.  Handles any time,
    including negatives and infinities. *)

module Wheel : S
(** Hierarchical timing wheel (calendar queue): float times are
    quantised to integer microticks (10^-6 s) at enqueue and bucketed
    into 4 levels — a wide 2^13-slot level 0 so typical event horizons
    place at the bottom without cascading, plus three 2^8-slot levels of
    geometrically coarser width — O(1) push, amortised O(1) pop,
    covering 2^37 microticks (~38 simulated hours) before spilling into
    an overflow list that is migrated when the wheel empties.  Cells
    live in unboxed, index-linked parallel arrays recycled through an
    internal free list, so steady-state operation allocates nothing
    (a free slot keeps its last value reachable until reuse; [clear]
    drops the store).  Quantisation picks buckets only: each bucket is
    sorted by the original [(time, seq)] key when drained, so the pop
    sequence is byte-identical to {!Heap}'s.  Same-tick events batch
    through a drain buffer and are delivered in one pass per bucket.
    Times must be non-negative. *)

type backend = (module S)

val heap : backend
val wheel : backend

val all : backend list
(** Every built-in backend, for matrix-style tests and docs. *)

val backend_name : backend -> string

val of_name : string -> (backend, string) result
(** Case-insensitive lookup by {!backend_name}; [Error] carries a
    human-readable message listing the valid names. *)

val default : unit -> backend
(** This domain's default backend, used by {!Sim.create} when [?sched]
    is omitted.  Initially {!heap}. *)

val set_default : backend -> unit
(** Sets this domain's default.  Domain-local: worker domains spawned
    later start from the initial {!heap} default, so batch drivers apply
    a configured backend inside the worker body (see
    [Mcc_core.Runner]). *)

type 'a queue = {
  push : time:float -> 'a -> unit;
  pop : unit -> (float * 'a) option;
  pop_into : float ref -> 'a -> 'a;
  pop_before : float ref -> bound:float -> 'a -> 'a;
  peek_time : unit -> float option;
  next_before : float -> bool;
  size : unit -> int;
  is_empty : unit -> bool;
  clear : unit -> unit;
  capacity : unit -> int;
  stats : unit -> Mcc_obs.Profile.sched_stats;
  backend : string;  (** {!backend_name} of the backend instantiated *)
}
(** A backend instance closed over its state: what {!Sim} actually
    holds, so the per-event hot loop pays one indirect call instead of a
    first-class-module unpack. *)

val instantiate : backend -> unit -> 'a queue
(** [instantiate b ()] creates a fresh queue on backend [b].  (The
    [unit] parameter keeps the result polymorphic in ['a] under the
    value restriction.) *)
