(* Backend introspection published by the scheduler/engine at the end
   of a run.  Everything here is deterministic (counts of simulated
   work), so it renders BEFORE the wall-clock fields in to_json. *)
type sched_stats = {
  pushes : int;
  max_size : int;
  capacities : int list;
  level_places : int list;
  overflow : int;
  drain_inserts : int;
  free_hits : int;
  free_misses : int;
  pool_hits : int;
  pool_misses : int;
}

type t = {
  sched : string;
  events : int;
  queue_capacity : int;
  sched_stats : sched_stats option;
  wall_s : float;
  events_per_sec : float;
  minor_words : int option;
}

(* Profiling measures elapsed wall time; everything else runs on the
   simulated clock, and the lint wall-clock rule keeps it that way. *)
(* lint: allow wall-clock — the one sanctioned host-clock read *)
let now () = Unix.gettimeofday ()

let with_wall_clock f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let measure f =
  let w0 = Gc.minor_words () in
  let r, wall_s = with_wall_clock f in
  (r, wall_s, int_of_float (Gc.minor_words () -. w0))

let make ?(sched = "heap") ?sched_stats ?minor_words ~events ~queue_capacity
    ~wall_s () =
  {
    sched;
    events;
    queue_capacity;
    sched_stats;
    wall_s;
    events_per_sec = (if wall_s > 0. then float_of_int events /. wall_s else 0.);
    minor_words;
  }

let sched_stats_to_json s =
  Json.Obj
    [
      ("pushes", Json.Int s.pushes);
      ("max_size", Json.Int s.max_size);
      ("capacities", Json.List (List.map (fun c -> Json.Int c) s.capacities));
      ("level_places", Json.List (List.map (fun c -> Json.Int c) s.level_places));
      ("overflow", Json.Int s.overflow);
      ("drain_inserts", Json.Int s.drain_inserts);
      ("free_hits", Json.Int s.free_hits);
      ("free_misses", Json.Int s.free_misses);
      ("pool_hits", Json.Int s.pool_hits);
      ("pool_misses", Json.Int s.pool_misses);
    ]

(* Wall-clock fields deliberately last — even when sched_stats render —
   followed by the minor-word count, which differs for the first run on
   a fresh domain: consumers comparing serial and parallel renderings
   byte-for-byte can truncate at "wall_s". *)
let to_json t =
  let deterministic =
    [
      ("sched", Json.String t.sched);
      ("events", Json.Int t.events);
      ("queue_capacity", Json.Int t.queue_capacity);
    ]
    @ (match t.sched_stats with
      | None -> []
      | Some s -> [ ("sched_stats", sched_stats_to_json s) ])
  in
  Json.Obj
    (deterministic
    @ [
        ("wall_s", Json.Float t.wall_s);
        ("events_per_sec", Json.Float t.events_per_sec);
      ]
    @
    match t.minor_words with
    | None -> []
    | Some w -> [ ("minor_words", Json.Int w) ])

let pp fmt t =
  Format.fprintf fmt
    "%d events in %.3f s (%.0f events/s, %s scheduler, queue capacity %d)"
    t.events t.wall_s t.events_per_sec t.sched t.queue_capacity

(* The engine flushes its backend stats here at the end of a run; the
   Runner, still on the same domain, picks them up for the profile
   record.  A DLS slot keeps batch workers independent. *)
let sched_stats_key : sched_stats option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let note_sched_stats s = Domain.DLS.set sched_stats_key (Some s)

let take_sched_stats () =
  let s = Domain.DLS.get sched_stats_key in
  Domain.DLS.set sched_stats_key None;
  s
