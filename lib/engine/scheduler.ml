(* Pluggable event-scheduler backends.

   The simulator's hot path is push/pop on a priority queue keyed by
   (time, seq): time orders events, the insertion sequence number breaks
   ties first-in first-out.  Every backend implements exactly that
   contract, so schedules are byte-identical no matter which backend a
   run selects — the choice is purely a performance knob.

   A sequence number can also be issued ahead of its push: [reserve]
   hands out a block of them and [push_keyed] queues an event under one
   later, so a caller can hold back events whose keys are already
   fixed and queue each only when it is next due. *)

(* A one-field all-float record is stored flat, so writing [time]
   boxes nothing; a [float ref] is polymorphic and boxes every write. *)
type cell = { mutable time : float }

module type S = sig
  val name : string

  type 'a t

  val create : unit -> 'a t
  val is_empty : 'a t -> bool
  val size : 'a t -> int
  val push : 'a t -> time:float -> 'a -> unit

  val reserve : 'a t -> int -> int
  (** [reserve t n] issues the next [n] sequence numbers without
      queuing anything and returns the first. *)

  val push_keyed : 'a t -> time:float -> seq:int -> 'a -> unit
  (** [push_keyed t ~time ~seq v] queues [v] under a reserved key. *)

  val pop_into : 'a t -> float ref -> 'a -> 'a
  (** [pop_into t r default] pops the earliest event, writing its time
      into [r] and returning its value, or returns [default] with [r]
      untouched when empty.  The write boxes the float; {!Sim}'s loops
      use {!pop_before} and its flat {!cell} instead. *)

  val pop_before : 'a t -> cell -> bound:float -> 'a -> 'a
  (** [pop_before t cell ~bound default] pops the earliest event at
      time [<= bound], writing its time into [cell] and returning its
      value, or returns [default] with [cell] untouched: a bounded run
      loop's peek and pop fused into one call, peeking the key exactly
      once per event, allocation-free (the cell is stored flat). *)

  val capacity : 'a t -> int

  val stats : 'a t -> Mcc_obs.Profile.sched_stats
  (** Backend introspection: push/occupancy counters, the capacity
      trajectory, and (wheel) bucket-placement histogram and free-list
      hit rates.  All counts are of simulated work — deterministic for
      a deterministic schedule.  The engine-side [pool_*] fields are 0
      here; {!Sim} fills them in before publishing. *)
end

let nan_message = "Scheduler.push: NaN time"
let reserve_message = "Scheduler.reserve: negative count"
let unissued_message = "Scheduler.push_keyed: seq was not reserved"

module Heap = struct
  let name = "heap"
  let initial_capacity = 64

  (* Each value is written once, into a parking slot of [values], and
     stays there until it pops.  The 4-ary heap orders three flat
     arrays: [times] (OCaml unboxes float arrays), [seqs], and [ids],
     the parking slot of each entry's value.  A sift therefore moves
     unboxed floats and ints only, and no sift level pays a
     write-barriered store of a value.

     [ids] is a permutation of the parking slots: [ids.(0 .. len-1)]
     are the live entries in heap order, and [ids.(len .. capacity-1)]
     is the free stack, its top at [len].  A push takes the slot on
     top, a pop puts the root's slot back.  A free slot keeps its last
     value reachable until a push reuses it — bounded by the heap's
     high-water mark (the wheel's free list makes the same trade). *)
  type 'a t = {
    mutable times : float array;
    mutable seqs : int array;
    mutable ids : int array;
    mutable values : 'a array;
    mutable len : int;
    mutable next_seq : int;
    mutable max_len : int;
    mutable growth_caps : int list;  (** newest first; reversed by [stats] *)
  }

  let create () =
    {
      times = [||];
      seqs = [||];
      ids = [||];
      values = [||];
      len = 0;
      next_seq = 0;
      max_len = 0;
      growth_caps = [];
    }

  let is_empty t = t.len = 0
  let size t = t.len
  let capacity t = Array.length t.times

  (* 4-ary layout: the children of slot [i] are [4i+1 .. 4i+4] and its
     parent is [(i-1)/4].  Against a binary heap the tree is half as
     deep, and the extra comparisons per level land on siblings that
     share a cache line.

     Both sifts move a hole, not the element: the element being placed
     stays put (push holds it in its own arguments, pop leaves it
     staged in the slot just past the shrunken tree) while parents or
     children shift into the hole, and it is written once at the end.
     [(time, seq)] keys are unique, so the pop order is the same
     whatever the arity or the sift strategy.

     The sift helpers take the arrays themselves, typed: left
     polymorphic, [<] would compile to a [caml_lessthan] call.  Every
     index they touch is below [len <= capacity], so they index
     unchecked; nothing else in the scheduler does. *)
  let[@hot] [@inline] before (times : float array) (seqs : int array) i j =
    let ti = Array.unsafe_get times i and tj = Array.unsafe_get times j in
    ti < tj || (ti = tj && Array.unsafe_get seqs i < Array.unsafe_get seqs j)

  (* [before] as 1 or 0, with no branch: each comparison becomes a
     flag set ([cmpltsd], [cmpeqsd], [setl]) and the three combine
     bitwise.  A sibling tournament's outcome is a coin toss, which no
     branch predictor learns, so there [before]'s jumps cost. *)
  let[@hot] [@inline] before_bit (times : float array) (seqs : int array) i j =
    let ti = Array.unsafe_get times i and tj = Array.unsafe_get times j in
    Bool.to_int (ti < tj)
    lor (Bool.to_int (ti = tj)
        land Bool.to_int (Array.unsafe_get seqs i < Array.unsafe_get seqs j))

  let[@hot] [@inline] move (times : float array) (seqs : int array)
      (ids : int array) ~src ~dst =
    Array.unsafe_set times dst (Array.unsafe_get times src);
    Array.unsafe_set seqs dst (Array.unsafe_get seqs src);
    Array.unsafe_set ids dst (Array.unsafe_get ids src)

  (* The pushed element carries the largest seq yet, so it sorts before
     a parent exactly when its time is strictly smaller.  [time] is
     [push]'s own (already boxed) argument passed down unchanged, so the
     recursion boxes nothing. *)
  let[@hot] rec sift_up (times : float array) (seqs : int array)
      (ids : int array) i (time : float) =
    if i = 0 then i
    else
      let parent = (i - 1) lsr 2 in
      if time < Array.unsafe_get times parent then begin
        move times seqs ids ~src:parent ~dst:i;
        sift_up times seqs ids parent time
      end
      else i

  (* A reserved seq can be older than a parent's, so [push_keyed] sifts
     on the full [(time, seq)] key. *)
  let[@hot] rec sift_up_keyed (times : float array) (seqs : int array)
      (ids : int array) i (time : float) (seq : int) =
    if i = 0 then i
    else
      let parent = (i - 1) lsr 2 in
      let tp = Array.unsafe_get times parent in
      if time < tp || (time = tp && seq < Array.unsafe_get seqs parent) then begin
        move times seqs ids ~src:parent ~dst:i;
        sift_up_keyed times seqs ids parent time seq
      end
      else i

  (* Smallest of the children [c .. last] of a partial sibling group. *)
  let[@hot] rec min_child (times : float array) (seqs : int array) best c
      last =
    if c > last then best
    else
      min_child times seqs
        (if before times seqs c best then c else best)
        (c + 1) last

  (* Sink the element staged at [s] from the hole at [i]; the tree is
     [0 .. s-1].  Returns the hole where the staged element belongs.
     A full sibling group picks its least child by arithmetic on
     [before_bit]; the test against the staged element keeps [before],
     whose branch predicts well (it fails once per pop). *)
  let[@hot] rec sift_down (times : float array) (seqs : int array)
      (ids : int array) s i =
    let c = (4 * i) + 1 in
    if c >= s then i
    else begin
      let m =
        if c + 3 < s then begin
          let a = c + before_bit times seqs (c + 1) c in
          let b = c + 2 + before_bit times seqs (c + 3) (c + 2) in
          a + (before_bit times seqs b a * (b - a))
        end
        else min_child times seqs c (c + 1) (s - 1)
      in
      if before times seqs m s then begin
        move times seqs ids ~src:m ~dst:i;
        sift_down times seqs ids s m
      end
      else i
    end

  (* Grow in place, only ever when full: allocate the doubled arrays
     once and blit.  The new parking slots [cap .. cap'-1] become the
     free stack, in order.  The [values] filler is the value being
     pushed — a sentinel that every free slot holds until a push parks
     a value there, never observed. *)
  let grow t filler =
    let cap = Array.length t.times in
    let cap' = if cap = 0 then initial_capacity else 2 * cap in
    let times' = Array.make cap' 0. in
    let seqs' = Array.make cap' 0 in
    let ids' = Array.init cap' Fun.id in
    let values' = Array.make cap' filler in
    Array.blit t.times 0 times' 0 cap;
    Array.blit t.seqs 0 seqs' 0 cap;
    Array.blit t.ids 0 ids' 0 cap;
    Array.blit t.values 0 values' 0 cap;
    t.times <- times';
    t.seqs <- seqs';
    t.ids <- ids';
    t.values <- values';
    t.growth_caps <- cap' :: t.growth_caps

  (* Park [value] in the free slot on top of the stack, at [ids.(len)],
     before the sift overwrites that entry. *)
  let[@hot] [@inline] park t value =
    let id = t.ids.(t.len) in
    t.values.(id) <- value;
    id

  let[@hot] [@inline] settle t i ~time ~seq id =
    t.times.(i) <- time;
    t.seqs.(i) <- seq;
    t.ids.(i) <- id;
    t.len <- t.len + 1;
    if t.len > t.max_len then t.max_len <- t.len

  let[@hot] push t ~time value =
    if Float.is_nan time then invalid_arg nan_message;
    if t.len = Array.length t.times then
      (* lint: allow hot-alloc — amortised doubling, not steady state *)
      grow t value;
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let id = park t value in
    settle t (sift_up t.times t.seqs t.ids t.len time) ~time ~seq id

  let reserve t n =
    if n < 0 then invalid_arg reserve_message;
    let first = t.next_seq in
    t.next_seq <- first + n;
    first

  let[@hot] push_keyed t ~time ~seq value =
    if Float.is_nan time then invalid_arg nan_message;
    if seq < 0 || seq >= t.next_seq then invalid_arg unissued_message;
    if t.len = Array.length t.times then
      (* lint: allow hot-alloc — amortised doubling, not steady state *)
      grow t value;
    let id = park t value in
    settle t (sift_up_keyed t.times t.seqs t.ids t.len time seq) ~time ~seq id

  (* Drop the root and return its value.  The last element is already
     staged outside the shrunken tree, at index [len - 1], so it sinks
     from the root's hole without a copy; its old index then takes the
     root's parking slot as the new top of the free stack. *)
  let[@hot] remove_root t =
    let root = t.ids.(0) in
    let last = t.len - 1 in
    t.len <- last;
    if last > 0 then
      move t.times t.seqs t.ids ~src:last
        ~dst:(sift_down t.times t.seqs t.ids last 0);
    t.ids.(last) <- root;
    t.values.(root)

  let pop_into t r default =
    if t.len = 0 then default
    else begin
      r := t.times.(0);
      remove_root t
    end

  let[@hot] pop_before t cell ~bound default =
    if t.len = 0 || t.times.(0) > bound then default
    else begin
      cell.time <- t.times.(0);
      remove_root t
    end

  (* next_seq advances once per plain push and once per reserved key,
     so it counts keys issued: the pushes a post-per-event schedule
     would have made. *)
  let stats t =
    {
      Mcc_obs.Profile.pushes = t.next_seq;
      max_size = t.max_len;
      capacities = List.rev t.growth_caps;
      level_places = [];
      overflow = 0;
      drain_inserts = 0;
      free_hits = 0;
      free_misses = 0;
      pool_hits = 0;
      pool_misses = 0;
    }
end

module Wheel = struct
  let name = "wheel"

  (* Hierarchical timing wheel, htsim-style: float times are quantised
     to integer microticks at enqueue and the tick picks a bucket in one
     of [levels] wheels.  Level 0 is deliberately wide (2^13 one-tick
     slots, ~8.2 simulated milliseconds) so that typical event horizons
     — timer periods, RTTs, slot durations — place directly at the
     bottom and rarely pay a cascade; levels 1-3 add 2^8 slots each of
     geometrically coarser width, for a horizon of 2^37 microticks
     (~38 simulated hours) before spilling into the overflow list.

     Quantisation is bucketing only: every cell carries its original
     float time, a bucket is sorted by (time, seq) as it is loaded into
     the drain, and pop returns the float time — so the pop sequence is
     byte-identical to the heap's even when quantisation collapses
     distinct times into one tick.

     Cells live in unboxed parallel arrays (same representation trick
     as {!Heap}) and chains are index-linked through [nexts] with -1 as
     nil, so a push in steady state allocates nothing: a popped cell's
     index goes onto an internal free list and is reused by a later
     push.  The one cost of that reuse is that a free slot keeps its
     last value reachable until it is overwritten — bounded by the
     store's high-water mark. *)
  let ticks_per_sec = 1_000_000.
  let levels = 4

  (* Level widths: 13 bits at level 0, 8 at each level above.
     [shift_of k] is the cumulative width below level k (so a level-k
     slot spans 2^(shift_of k) ticks), [top_of k] the cumulative width
     through it, [offset_of k] the level's start in the flat slot
     array.  Closed forms, not tables: the linter bans module-level
     array literals, and the multiplies constant-fold anyway. *)
  let shift_of k = if k = 0 then 0 else (8 * k) + 5
  let top_of k = (8 * k) + 13
  let mask_of k = if k = 0 then 8191 else 255
  let offset_of k = if k = 0 then 0 else 8192 + (256 * (k - 1))
  let total_slots = 8960
  let nil = -1
  let initial_capacity = 64

  type 'a t = {
    slots : int array;  (** bucket heads into the cell store; [nil] = empty *)
    level_count : int array;
    mutable cur : int;  (** cursor: no wheel-resident cell has a smaller tick *)
    mutable wheel_count : int;  (** cells resident in [slots] *)
    mutable overflow : int;  (** ticks beyond the top level's horizon *)
    mutable overflow_count : int;
    mutable drain : int;  (** current tick's cells, sorted by (time, seq) *)
    mutable drain_tick : int;  (** -1 until the first bucket is drained *)
    mutable size : int;  (** total events, drain and overflow included *)
    mutable next_seq : int;
    (* cell store: parallel arrays indexed by cell, chained by [nexts] *)
    mutable times : float array;
    mutable seqs : int array;
    mutable ticks : int array;
    mutable nexts : int array;
    mutable values : 'a array;
    mutable free : int;  (** head of the free-slot chain through [nexts] *)
    mutable scratch : int array;  (** reused by the drain sort *)
    (* introspection counters (simulated work only — deterministic) *)
    mutable max_size : int;
    places : int array;  (** placements per level, cascades included *)
    mutable overflow_places : int;
    mutable drain_inserted : int;
    mutable free_hits : int;  (** cell allocs served by the free list *)
    mutable free_misses : int;  (** cell allocs that forced a store growth *)
    mutable growth_caps : int list;  (** newest first; reversed by [stats] *)
  }

  let create () =
    {
      slots = Array.make total_slots nil;
      level_count = Array.make levels 0;
      cur = 0;
      wheel_count = 0;
      overflow = nil;
      overflow_count = 0;
      drain = nil;
      drain_tick = -1;
      size = 0;
      next_seq = 0;
      times = [||];
      seqs = [||];
      ticks = [||];
      nexts = [||];
      values = [||];
      free = nil;
      scratch = [||];
      max_size = 0;
      places = Array.make levels 0;
      overflow_places = 0;
      drain_inserted = 0;
      free_hits = 0;
      free_misses = 0;
      growth_caps = [];
    }

  let is_empty t = t.size = 0
  let size t = t.size

  (* Fixed slot table plus the cell store's high-water mark. *)
  let capacity t = total_slots + Array.length t.times

  let[@hot] tick_of_time time =
    let scaled = time *. ticks_per_sec in
    if scaled >= float_of_int max_int then max_int else int_of_float scaled

  (* Double the cell store (same in-place growth as {!Heap.grow}) and
     thread the new slots onto the free list. *)
  let grow t filler =
    let cap = Array.length t.times in
    let cap' = if cap = 0 then initial_capacity else 2 * cap in
    let times' = Array.make cap' 0. in
    let seqs' = Array.make cap' 0 in
    let ticks' = Array.make cap' 0 in
    let nexts' = Array.make cap' nil in
    let values' = Array.make cap' filler in
    Array.blit t.times 0 times' 0 cap;
    Array.blit t.seqs 0 seqs' 0 cap;
    Array.blit t.ticks 0 ticks' 0 cap;
    Array.blit t.nexts 0 nexts' 0 cap;
    Array.blit t.values 0 values' 0 cap;
    for i = cap to cap' - 2 do
      nexts'.(i) <- i + 1
    done;
    nexts'.(cap' - 1) <- t.free;
    t.free <- cap;
    t.times <- times';
    t.seqs <- seqs';
    t.ticks <- ticks';
    t.nexts <- nexts';
    t.values <- values';
    t.growth_caps <- cap' :: t.growth_caps

  let[@hot] alloc_cell t ~time ~seq ~tick value =
    if t.free = nil then begin
      (* lint: allow hot-alloc — amortised doubling, not steady state *)
      grow t value;
      t.free_misses <- t.free_misses + 1
    end
    else t.free_hits <- t.free_hits + 1;
    let i = t.free in
    t.free <- t.nexts.(i);
    t.times.(i) <- time;
    t.seqs.(i) <- seq;
    t.ticks.(i) <- tick;
    t.values.(i) <- value;
    i

  let[@hot] free_cell t i =
    t.nexts.(i) <- t.free;
    t.free <- i

  (* Place a cell by the alignment invariant: level k holds exactly the
     cells whose tick shares the cursor's prefix above level k but not
     its level-k prefix (those live lower).  The invariant is restored
     top-down as the cursor crosses slot boundaries, by cascading the
     entered slot's chain down a level before trusting the levels below.

     Chains are unordered (a slot prepends): level-0 buckets are sorted
     as they load into the drain, and higher-level chains are re-placed
     by a cascade before they can drain. *)
  let[@hot] rec place_level t tick k =
    if k >= levels then -1
    else if tick lsr top_of k = t.cur lsr top_of k then k
    else place_level t tick (k + 1)

  let[@hot] place t i =
    let tick = t.ticks.(i) in
    match place_level t tick 0 with
    | -1 ->
        t.nexts.(i) <- t.overflow;
        t.overflow <- i;
        t.overflow_count <- t.overflow_count + 1;
        t.overflow_places <- t.overflow_places + 1
    | k ->
        let idx = offset_of k + ((tick lsr shift_of k) land mask_of k) in
        t.nexts.(i) <- t.slots.(idx);
        t.slots.(idx) <- i;
        t.level_count.(k) <- t.level_count.(k) + 1;
        t.wheel_count <- t.wheel_count + 1;
        t.places.(k) <- t.places.(k) + 1

  (* Detach a chain and re-place each cell (used by cascades and
     overflow migration; [place] rewrites each cell's link). *)
  let replace_chain t head =
    let i = ref head in
    while !i <> nil do
      let next = t.nexts.(!i) in
      place t !i;
      i := next
    done

  (* Cell [a] sorts strictly before cell [b] under (time, seq). *)
  let[@hot] cell_before t a b =
    let ta = t.times.(a) and tb = t.times.(b) in
    if ta < tb then true
    else if tb < ta then false
    else t.seqs.(a) < t.seqs.(b)

  (* Load a same-tick bucket into the drain in (time, seq) order: copy
     the chain's indices into the reused scratch buffer, heapsort them
     (in place, allocation-free, and O(k log k) even for pathological
     buckets where every event shares a tick), and relink.  seq is
     unique so the order is total; NaN times are rejected at push. *)
  let load_drain_multi t head =
    let n = ref 0 in
    let i = ref head in
    while !i <> nil do
      if !n >= Array.length t.scratch then begin
        let grown =
          Array.make (Stdlib.max 64 (2 * Array.length t.scratch)) 0
        in
        Array.blit t.scratch 0 grown 0 !n;
        t.scratch <- grown
      end;
      t.scratch.(!n) <- !i;
      incr n;
      i := t.nexts.(!i)
    done;
    let n = !n in
    let a = t.scratch in
    (* heapsort on a.(0 .. n-1), max-heap so the array ends ascending *)
    let sift root len =
      let r = ref root in
      let continue = ref true in
      while !continue do
        let l = (2 * !r) + 1 in
        if l >= len then continue := false
        else begin
          let child =
            if l + 1 < len && cell_before t a.(l) a.(l + 1) then l + 1 else l
          in
          if cell_before t a.(!r) a.(child) then begin
            let tmp = a.(!r) in
            a.(!r) <- a.(child);
            a.(child) <- tmp;
            r := child
          end
          else continue := false
        end
      done
    in
    for root = (n / 2) - 1 downto 0 do
      sift root n
    done;
    for last = n - 1 downto 1 do
      let tmp = a.(0) in
      a.(0) <- a.(last);
      a.(last) <- tmp;
      sift 0 last
    done;
    for j = 0 to n - 2 do
      t.nexts.(a.(j)) <- a.(j + 1)
    done;
    if n > 0 then begin
      t.nexts.(a.(n - 1)) <- nil;
      t.drain <- a.(0)
    end
    else t.drain <- nil

  (* Single-cell buckets (the common case at realistic densities) skip
     the scratch/heapsort machinery entirely. *)
  let[@hot] load_drain t head =
    if head <> nil && t.nexts.(head) = nil then t.drain <- head
    else load_drain_multi t head

  (* Walk to the insertion point for cell [i] and splice it in after
     [prev].  Tail-recursive (a loop after compilation), so pathological
     same-tick chains cost time, never stack — and no [ref] cursor. *)
  let[@hot] rec drain_insert_after t prev i =
    if t.nexts.(prev) <> nil && cell_before t t.nexts.(prev) i then
      drain_insert_after t t.nexts.(prev) i
    else begin
      t.nexts.(i) <- t.nexts.(prev);
      t.nexts.(prev) <- i
    end

  (* Cells that land on the tick currently being drained must
     interleave with the not-yet-popped drain cells exactly as the heap
     would order them: sorted insertion. *)
  let[@hot] drain_insert t i =
    if t.drain = nil || cell_before t i t.drain then begin
      t.nexts.(i) <- t.drain;
      t.drain <- i
    end
    else drain_insert_after t t.drain i

  let[@hot] [@inline] check_time time =
    if Float.is_nan time then invalid_arg nan_message;
    if time < 0. then invalid_arg "Scheduler.push: negative time (wheel)"

  (* A plain push and a keyed one place alike: the drain insert and the
     bucket sort both order by the full [(time, seq)] key. *)
  let[@hot] [@inline] insert t ~time ~seq value =
    let tick = tick_of_time time in
    let i = alloc_cell t ~time ~seq ~tick value in
    t.size <- t.size + 1;
    if t.size > t.max_size then t.max_size <- t.size;
    if tick <= t.drain_tick then begin
      drain_insert t i;
      t.drain_inserted <- t.drain_inserted + 1
    end
    else place t i

  let[@hot] push t ~time value =
    check_time time;
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    insert t ~time ~seq value

  let reserve t n =
    if n < 0 then invalid_arg reserve_message;
    let first = t.next_seq in
    t.next_seq <- first + n;
    first

  let[@hot] push_keyed t ~time ~seq value =
    check_time time;
    if seq < 0 || seq >= t.next_seq then invalid_arg unissued_message;
    insert t ~time ~seq value

  (* The wheel proper is empty: rebase the cursor on the earliest
     overflow tick and re-place every overflow cell (the earliest lands
     in the wheel by construction). *)
  let migrate_overflow t =
    let min_tick = ref max_int in
    let i = ref t.overflow in
    while !i <> nil do
      if t.ticks.(!i) < !min_tick then min_tick := t.ticks.(!i);
      i := t.nexts.(!i)
    done;
    t.cur <- !min_tick;
    let chain = t.overflow in
    t.overflow <- nil;
    t.overflow_count <- 0;
    replace_chain t chain

  (* Find the earliest occupied bucket and load it into the drain.
     Precondition: drain empty, size > 0.  Scans the lowest non-empty
     level from the cursor's slot upward — residents of level k always
     live in the cursor's current span at slot indices >= the cursor's
     own, so a linear scan visits them in tick order and cannot come up
     empty.  Finding a slot at level >= 1 cascades its chain down one
     level and rescans from the bottom. *)
  let[@hot] rec chain_len t i acc =
    if i = nil then acc else chain_len t t.nexts.(i) (acc + 1)

  (* Level-0 slot scan: shift 0, offset 0, mask 8191 folded to
     constants. *)
  let[@hot] rec scan0 t idx =
    if idx > 8191 then assert false
    else if t.slots.(idx) = nil then scan0 t (idx + 1)
    else idx

  let[@hot] rec scan_level t base mask idx =
    if idx > mask then assert false
    else if t.slots.(base + idx) = nil then scan_level t base mask (idx + 1)
    else idx

  (* Lifted out of [advance] so the per-pop path defines no closures:
     the scans, the chain count, and the level loop are all module-level
     tail calls over [t]'s flat arrays. *)
  let[@hot] rec advance_from t k =
    if k >= levels then assert false
    else if t.level_count.(k) = 0 then advance_from t (k + 1)
    else if k = 0 then begin
      (* Level-0 fast path: the overwhelmingly common single-cell bucket
         loads the drain without any chain walk or sort. *)
      let idx = scan0 t (t.cur land 8191) in
      let chain = t.slots.(idx) in
      t.slots.(idx) <- nil;
      t.cur <- ((t.cur lsr 13) lsl 13) lor idx;
      t.drain_tick <- t.cur;
      if t.nexts.(chain) = nil then begin
        t.level_count.(0) <- t.level_count.(0) - 1;
        t.wheel_count <- t.wheel_count - 1;
        t.drain <- chain
      end
      else begin
        let n = chain_len t chain 0 in
        t.level_count.(0) <- t.level_count.(0) - n;
        t.wheel_count <- t.wheel_count - n;
        load_drain t chain
      end
    end
    else begin
      let shift = shift_of k in
      let base = offset_of k in
      let mask = mask_of k in
      let idx = scan_level t base mask ((t.cur lsr shift) land mask) in
      let chain = t.slots.(base + idx) in
      t.slots.(base + idx) <- nil;
      let n = chain_len t chain 0 in
      t.level_count.(k) <- t.level_count.(k) - n;
      t.wheel_count <- t.wheel_count - n;
      let span = top_of k in
      t.cur <- ((t.cur lsr span) lsl span) lor (idx lsl shift);
      replace_chain t chain;
      advance_from t 0
    end

  let[@hot] advance t =
    if t.wheel_count = 0 then migrate_overflow t;
    advance_from t 0

  let pop_into t r default =
    if t.size = 0 then default
    else begin
      if t.drain = nil then advance t;
      let i = t.drain in
      let value = t.values.(i) in
      r := t.times.(i);
      t.drain <- t.nexts.(i);
      t.size <- t.size - 1;
      free_cell t i;
      value
    end

  let[@hot] pop_before t cell ~bound default =
    if t.size = 0 then default
    else begin
      if t.drain = nil then advance t;
      let i = t.drain in
      let time = t.times.(i) in
      if time > bound then default
      else begin
        let value = t.values.(i) in
        cell.time <- time;
        t.drain <- t.nexts.(i);
        t.size <- t.size - 1;
        free_cell t i;
        value
      end
    end

  let stats t =
    {
      Mcc_obs.Profile.pushes = t.next_seq;
      max_size = t.max_size;
      capacities = List.rev t.growth_caps;
      level_places = Array.to_list t.places;
      overflow = t.overflow_places;
      drain_inserts = t.drain_inserted;
      free_hits = t.free_hits;
      free_misses = t.free_misses;
      pool_hits = 0;
      pool_misses = 0;
    }
end

type backend = (module S)

let heap : backend = (module Heap)
let wheel : backend = (module Wheel)
let all = [ heap; wheel ]
let backend_name (module B : S) = B.name

let of_name s =
  match String.lowercase_ascii s with
  | "heap" -> Ok heap
  | "wheel" -> Ok wheel
  | other ->
      Error
        (Printf.sprintf "unknown scheduler backend %S (expected heap or wheel)"
           other)

(* The domain-local default backend.  Worker domains start from the
   initializer (heap), so batch drivers that honour a --sched flag set
   the default inside the worker body, not before spawning. *)
let default_key = Domain.DLS.new_key (fun () -> heap)
let default () = Domain.DLS.get default_key
let set_default b = Domain.DLS.set default_key b

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
  backend : string;
}

let instantiate (module B : S) () =
  let q = B.create () in
  {
    push = (fun ~time v -> B.push q ~time v);
    reserve = (fun n -> B.reserve q n);
    push_keyed = (fun ~time ~seq v -> B.push_keyed q ~time ~seq v);
    pop_into = (fun r default -> B.pop_into q r default);
    pop_before = (fun cell ~bound default -> B.pop_before q cell ~bound default);
    size = (fun () -> B.size q);
    is_empty = (fun () -> B.is_empty q);
    capacity = (fun () -> B.capacity q);
    stats = (fun () -> B.stats q);
    backend = B.name;
  }
