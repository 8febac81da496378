(** Pluggable event-scheduler backends for the simulation engine.

    Every backend is a priority queue keyed by [(time, seq)]: events pop
    in time order, and events pushed with equal times pop first-in
    first-out.  That contract is exact — all backends produce
    byte-identical pop sequences for the same push/pop interleaving — so
    the backend choice is purely a performance knob and never a
    semantics knob.  {!Sim.create} selects a backend per simulation; the
    [--sched heap|wheel] CLI flag and the batch drivers route through
    {!set_default}.

    Keys can be issued ahead of their events: {!S.reserve} hands out a
    block of sequence numbers and {!S.push_keyed} queues an event under
    one of them later.  An event then pops exactly where it would have
    popped had it been pushed when its key was issued, so a caller can
    hold back events whose keys are fixed — a slot's packet train, a
    re-armed timer — and keep only the next one queued. *)

type cell = { mutable time : float }
(** Where {!S.pop_before} writes the popped time.  A one-field float
    record is stored flat, so the write boxes nothing (a [float ref]
    would box every write: two minor words per pop). *)

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
  (** Queues an event under the key [(time, s)], where [s] is the next
      sequence number.
      @raise Invalid_argument on a NaN time (every backend), or on a
      negative time for backends that quantise to non-negative integer
      ticks ({!Wheel}). *)

  val reserve : 'a t -> int -> int
  (** [reserve t n] issues the next [n] sequence numbers without queuing
      anything and returns the first, [s]: the keys [s .. s+n-1] are
      exactly those [n] plain pushes made now would get.
      @raise Invalid_argument if [n < 0]. *)

  val push_keyed : 'a t -> time:float -> seq:int -> 'a -> unit
  (** [push_keyed t ~time ~seq v] queues [v] under the key [(time, seq)]
      for a [seq] issued by {!reserve}.  The caller keeps two rules:
      each reserved key is queued at most once at a time, and [time] is
      no earlier than the last popped event's (what {!Sim} enforces for
      every event anyway).  [(time, seq)] then pops where it sorts, among
      plain pushes and other keyed ones alike.  Plain {!push} keeps its
      shortcut that a new event carries the newest seq; a keyed push
      sifts ({!Heap}) or inserts ({!Wheel}) on the full key.
      @raise Invalid_argument as {!push} does, or if [seq] was never
      issued. *)

  val pop_into : 'a t -> float ref -> 'a -> 'a
  (** [pop_into t r default] pops the earliest event (ties in push
      order), writing its time into [r] and returning its value, or
      returns [default] with [r] untouched when empty.  No option or
      tuple is built, but the write into the polymorphic ref boxes the
      float.  {!Sim}'s loops run on {!pop_before}, which writes into a
      flat {!cell}. *)

  val pop_before : 'a t -> cell -> bound:float -> 'a -> 'a
  (** [pop_before t cell ~bound default] pops the earliest event (ties
      in push order) if its time is [<= bound], writing the time into
      [cell] and returning the value; otherwise it returns [default]
      with [cell] untouched.  It peeks the key exactly once, and
      allocates nothing: no option or tuple, and the cell stores the
      float flat.  {!Sim}'s loops run on it with a sentinel as
      [default] (and a bound of [infinity] when unbounded). *)

  val capacity : 'a t -> int
  (** Current backing allocation in slots (observability / tests).  For
      {!Heap} this is the parallel-array length (0 after [create] —
      storage is lazily allocated on first push); for {!Wheel} it is
      the fixed slot-table size plus the cell store's high-water
      mark. *)

  val stats : 'a t -> Mcc_obs.Profile.sched_stats
  (** Backend introspection since [create]: pushes
      (keys issued: plain pushes plus reserved keys, so holding events
      back does not change the count), size high-water and the capacity
      trajectory for every backend;
      {!Wheel} additionally fills the per-level bucket-placement
      histogram (cascade re-placements included), overflow placements,
      draining-tick inserts and cell free-list hit/miss counters.  All
      counts are of simulated work, so they are deterministic for a
      deterministic schedule.  The engine-side [pool_hits]/[pool_misses]
      fields are 0 here; {!Sim} fills them in before publishing the
      record through {!Mcc_obs.Profile.note_sched_stats}. *)
end

module Heap : S
(** 4-ary min-heap with parked values: a push writes its value once
    into a parking slot taken from a free stack, and the heap orders
    unboxed parallel arrays of keys and slot indices ([float array]
    times, [int array] seqs and slot ids; the children of slot [i] are
    [4i+1 .. 4i+4]); a pop reads its value once and frees the slot.
    O(log n) push/pop, zero allocation per operation outside the
    amortised storage doubling.  Sifts move a hole rather than
    swapping: the element being placed waits (push holds it in its
    arguments, pop leaves it staged in the slot just past the shrunken
    tree) while parents or children shift into the hole, so a level
    moves only unboxed keys and an index, with no write barrier, and
    the tree is half as deep as a binary one.  No extra slot is
    reserved, so {!S.capacity} and its growth points are those of a
    plain array heap.  A free parking slot keeps its last value
    reachable until a push reuses it.  Handles
    any time, including negatives and infinities. *)

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
    (a free slot keeps its last value reachable until reuse).  Quantisation picks buckets only: each bucket is
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
  reserve : int -> int;
  push_keyed : time:float -> seq:int -> 'a -> unit;
  pop_into : float ref -> 'a -> 'a;
  pop_before : cell -> bound:float -> 'a -> 'a;
  size : unit -> int;
  is_empty : unit -> bool;
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
