module Metrics = Mcc_obs.Metrics

(* A queue entry.  A popped entry always runs [fire]; it counts as an
   executed event only if it is not [cancelled].  [cancel] swaps a
   user event's closure for [noop], so only a timer's superseded entry
   runs code while cancelled: the hook that re-queues it. *)
type handle = {
  mutable cancelled : bool;
  mutable fire : unit -> unit;
  (* [post]ed handles never escape to a caller, so the sim recycles
     them through an internal pool after they fire. *)
  mutable recycle : bool;
}

let noop () = ()

type t = {
  queue : handle Scheduler.queue;
  mutable clock : float;
  mutable executed : int;
  (* Hot-loop scratch: [pop_before] writes the event time into
     [time_cell] (a flat float record, so the store boxes nothing) and
     returns [sentinel] when nothing is due, so a step allocates
     nothing. *)
  time_cell : Scheduler.cell;
  sentinel : handle;
  (* Free list of recyclable handles: [post]/[post_after] reuse fired
     records, so steady-state fire-and-forget scheduling allocates
     nothing.  Stack-backed; the sentinel fills the unused slots. *)
  mutable pool : handle array;
  mutable pool_len : int;
  mutable pool_hits : int;
  mutable pool_misses : int;
  (* Telemetry handles, fetched at creation so the hot loop never does a
     registry lookup; [reported] makes the flush incremental, so several
     sims in one domain sum into "engine.events". *)
  events_metric : Metrics.counter;
  queue_capacity_metric : Metrics.gauge;
  backend_capacity_metric : Metrics.gauge;
  mutable reported : int;
}

(* Called when a run returns to its driver, not per event: the hot loop
   carries zero instrumentation cost. *)
let flush_metrics t =
  Metrics.incr t.events_metric ~by:(t.executed - t.reported);
  t.reported <- t.executed;
  let capacity = float_of_int (t.queue.Scheduler.capacity ()) in
  Metrics.set t.queue_capacity_metric capacity;
  Metrics.set t.backend_capacity_metric capacity;
  (* Park the backend probe (plus this sim's handle-pool counters) for
     whoever builds the run profile on this domain. *)
  Mcc_obs.Profile.note_sched_stats
    {
      (t.queue.Scheduler.stats ()) with
      Mcc_obs.Profile.pool_hits = t.pool_hits;
      pool_misses = t.pool_misses;
    }

let now t = t.clock
let sched_name t = t.queue.Scheduler.backend

(* Out of line so the formatted message is built only on the error
   path, never in a hot caller's own body. *)
let in_past name at clock =
  invalid_arg (Printf.sprintf "Sim.%s: at=%g is before now=%g" name at clock)

let schedule t ~at f =
  if at < t.clock then in_past "schedule" at t.clock;
  let h = { cancelled = false; fire = f; recycle = false } in
  t.queue.Scheduler.push ~time:at h;
  h

let schedule_after t ~delay f =
  if delay < 0. then invalid_arg "Sim.schedule_after: negative delay";
  schedule t ~at:(t.clock +. delay) f

let[@hot] take_handle t f =
  if t.pool_len = 0 then begin
    t.pool_misses <- t.pool_misses + 1;
    (* lint: allow hot-alloc — pool miss builds the record being pooled *)
    { cancelled = false; fire = f; recycle = true }
  end
  else begin
    t.pool_hits <- t.pool_hits + 1;
    t.pool_len <- t.pool_len - 1;
    let h = t.pool.(t.pool_len) in
    t.pool.(t.pool_len) <- t.sentinel;
    h.cancelled <- false;
    h.fire <- f;
    h
  end

let[@hot] put_handle t h =
  (* Drop the closure so a parked handle retains nothing. *)
  h.fire <- noop;
  let cap = Array.length t.pool in
  if t.pool_len = cap then begin
    (* lint: allow hot-alloc — amortised doubling, not steady state *)
    let grown = Array.make (if cap = 0 then 64 else 2 * cap) t.sentinel in
    Array.blit t.pool 0 grown 0 cap;
    t.pool <- grown
  end;
  t.pool.(t.pool_len) <- h;
  t.pool_len <- t.pool_len + 1

let[@hot] post t ~at f =
  if at < t.clock then in_past "post" at t.clock;
  t.queue.Scheduler.push ~time:at (take_handle t f)

let[@hot] post_after t ~delay f =
  if delay < 0. then invalid_arg "Sim.post_after: negative delay";
  post t ~at:(t.clock +. delay) f

let cancel h =
  h.cancelled <- true;
  h.fire <- noop

let cancelled h = h.cancelled

(* --- Trains --------------------------------------------------------- *)

(* One queue entry walks the whole train: firing element [i] re-queues
   the entry under element [i+1]'s reserved key, so the queue holds one
   entry per train however long it is. *)
type train = {
  owner : t;
  entry : handle;
  emit : int -> unit;
  first : float;
  spacing : float;
  count : int;
  base : int;  (** element [i]'s seq is [base + i] *)
  mutable next : int;  (** the element the queued entry stands for *)
}

(* The next element's time is boxed for the [push_keyed] call, as a
   [post]'s computed time always was (2 words; float boxing is outside
   what the hot-alloc lint models).  Nothing else here allocates. *)
let[@hot] train_step tr =
  let i = tr.next in
  let j = i + 1 in
  if j < tr.count then begin
    tr.next <- j;
    tr.owner.queue.Scheduler.push_keyed
      ~time:(tr.first +. (float_of_int j *. tr.spacing))
      ~seq:(tr.base + j) tr.entry
  end;
  tr.emit i

let post_train t ~count ~at ~spacing f =
  if count < 0 then invalid_arg "Sim.post_train: negative count";
  if at < t.clock then in_past "post_train" at t.clock;
  if not (Float.is_finite spacing && spacing >= 0.) then
    invalid_arg "Sim.post_train: spacing must be finite and >= 0";
  if count > 0 then begin
    let base = t.queue.Scheduler.reserve count in
    let entry = { cancelled = false; fire = noop; recycle = false } in
    let tr =
      { owner = t; entry; emit = f; first = at; spacing; count; base; next = 0 }
    in
    entry.fire <- (fun () -> train_step tr);
    t.queue.Scheduler.push_keyed ~time:at ~seq:base entry
  end

(* --- Timers --------------------------------------------------------- *)

(* A timer keeps at most one live entry.  Arming issues the key
   [schedule] would; when the queued entry sits at an earlier key it
   is marked cancelled (uncounted) and, on popping, re-queues itself
   under the armed key.  Only arming earlier than the queued entry
   abandons it for a fresh one. *)
type timer = {
  owner : t;
  mutable entry : handle;
  mutable action : unit -> unit;
  mutable armed : bool;
  mutable at : float;  (** armed key: [(at, seq)] *)
  mutable seq : int;
  mutable queued : bool;  (** [entry] is in the queue ... *)
  mutable queued_at : float;  (** ... at this time *)
}

let[@hot] queue_entry tm =
  tm.queued <- true;
  tm.queued_at <- tm.at;
  tm.entry.cancelled <- false;
  tm.owner.queue.Scheduler.push_keyed ~time:tm.at ~seq:tm.seq tm.entry

(* The entry's [fire]: runs for every pop of the live entry, counted or
   not. *)
let[@hot] timer_pop tm =
  if not tm.armed then tm.queued <- false
  else if tm.entry.cancelled then queue_entry tm
  else begin
    tm.armed <- false;
    tm.queued <- false;
    tm.action ()
  end

let timer t =
  let entry = { cancelled = true; fire = noop; recycle = false } in
  let tm =
    {
      owner = t;
      entry;
      action = noop;
      armed = false;
      at = 0.;
      seq = 0;
      queued = false;
      queued_at = 0.;
    }
  in
  entry.fire <- (fun () -> timer_pop tm);
  tm

let[@hot] arm tm ~at f =
  if at < tm.owner.clock then in_past "arm" at tm.owner.clock;
  tm.action <- f;
  tm.armed <- true;
  tm.at <- at;
  tm.seq <- tm.owner.queue.Scheduler.reserve 1;
  if not tm.queued then queue_entry tm
  else if at < tm.queued_at then begin
    (* The queued entry would pop too late: leave it to pop as a plain
       cancelled event and queue a fresh one. *)
    let old = tm.entry in
    (* lint: allow hot-alloc — only when re-armed earlier, which is rare *)
    tm.entry <- { cancelled = false; fire = old.fire; recycle = false };
    cancel old;
    queue_entry tm
  end
  else tm.entry.cancelled <- true

let disarm tm =
  tm.armed <- false;
  tm.entry.cancelled <- true

let every t ~start ~period f =
  if period <= 0. then invalid_arg "Sim.every: period <= 0";
  (* The outer handle stands for the whole periodic task: cancelling it
     prevents both the pending tick and all future rescheduling. *)
  let outer = { cancelled = false; fire = noop; recycle = false } in
  let rec tick at () =
    if not outer.cancelled then begin
      f ();
      if not outer.cancelled then begin
        let next = at +. period in
        post t ~at:next (tick next)
      end
    end
  in
  outer.fire <- noop;
  post t ~at:start (tick start);
  outer

let create ?sched () =
  let backend =
    match sched with Some b -> b | None -> Scheduler.default ()
  in
  let queue = Scheduler.instantiate backend () in
  let t =
    {
      queue;
      clock = 0.;
      executed = 0;
      time_cell = { Scheduler.time = 0. };
      sentinel = { cancelled = true; fire = noop; recycle = false };
      pool = [||];
      pool_len = 0;
      pool_hits = 0;
      pool_misses = 0;
      events_metric = Metrics.counter "engine.events";
      queue_capacity_metric = Metrics.gauge "engine.queue_capacity";
      backend_capacity_metric =
        Metrics.gauge ("engine.queue_capacity." ^ queue.Scheduler.backend);
      reported = 0;
    }
  in
  (* The time-series clock hook: mcc_obs cannot depend on the engine, so
     the dependency is inverted — when this domain has sampling enabled
     ([Timeseries.enable ~dt]), the sim drives [Timeseries.sample_all]
     through its own queue at that period.  Installed here, not lazily,
     so the sample times of a spec are identical no matter which
     components later register samplers. *)
  (match Mcc_obs.Timeseries.dt () with
  | Some period ->
      ignore
        (every t ~start:0. ~period (fun () ->
             Mcc_obs.Timeseries.sample_all ~time:t.clock))
  | None -> ());
  t

(* Pops and runs every event due by [bound].  A popped entry always
   runs its [fire] (see [handle]) and counts only when live. *)
let[@hot] rec drain t bound =
  let h = t.queue.Scheduler.pop_before t.time_cell ~bound t.sentinel in
  if h != t.sentinel then begin
    t.clock <- t.time_cell.Scheduler.time;
    if not h.cancelled then t.executed <- t.executed + 1;
    h.fire ();
    if h.recycle then put_handle t h;
    drain t bound
  end

(* The profiled variant lives apart from the plain one so the disabled
   path stays the plain loop: [run]/[run_until] branch ONCE on
   [Prof.enabled] at entry, never per event.  Inside the instrumented
   loop, scheduler time (pop + requeue bookkeeping) accrues to
   "engine.sched" and callback time to whatever spans the components
   open; the remainder is the engine's own self time. *)
let drain_profiled t bound =
  let root = Mcc_obs.Prof.span "engine" in
  let running = ref true in
  while !running do
    let sp = Mcc_obs.Prof.span "engine.sched" in
    let h = t.queue.Scheduler.pop_before t.time_cell ~bound t.sentinel in
    Mcc_obs.Prof.finish sp;
    if h == t.sentinel then running := false
    else begin
      t.clock <- t.time_cell.Scheduler.time;
      if not h.cancelled then t.executed <- t.executed + 1;
      h.fire ();
      if h.recycle then put_handle t h
    end
  done;
  Mcc_obs.Prof.finish root

let run_events t bound =
  if Mcc_obs.Prof.enabled () then drain_profiled t bound else drain t bound

let run_until t horizon =
  run_events t horizon;
  t.clock <- max t.clock horizon;
  flush_metrics t

let run t =
  run_events t infinity;
  flush_metrics t

let events_executed t = t.executed
