module Scheduler = Mcc_engine.Scheduler
module Sim = Mcc_engine.Sim
module Prng = Mcc_util.Prng

(* Queue-contract tests run against every backend: the Scheduler
   interface promises byte-identical pop sequences, so the same
   assertions must hold for heap and wheel alike. *)
let backends = Scheduler.all

(* The earliest event as [Some (time, value)], popped through the
   engine's own [pop_before] with no bound; [dummy] is the value the
   call would return on an empty queue, never returned here. *)
let pop q dummy =
  if q.Scheduler.is_empty () then None
  else begin
    let cell = { Scheduler.time = nan } in
    let v = q.Scheduler.pop_before cell ~bound:infinity dummy in
    Some (cell.Scheduler.time, v)
  end

let each_backend check f =
  List.iter
    (fun b ->
      let name = Scheduler.backend_name b in
      f name (Scheduler.instantiate b ()))
    check

let test_queue_order () =
  each_backend backends (fun name q ->
      q.Scheduler.push ~time:3. "c";
      q.Scheduler.push ~time:1. "a";
      q.Scheduler.push ~time:2. "b";
      let pop () = match pop q "?" with Some (_, v) -> v | None -> "?" in
      let first = pop () in
      let second = pop () in
      let third = pop () in
      Alcotest.(check (list string))
        (name ^ " sorted")
        [ "a"; "b"; "c" ]
        [ first; second; third ])

let test_queue_fifo_ties () =
  each_backend backends (fun name q ->
      for i = 0 to 9 do
        q.Scheduler.push ~time:1. i
      done;
      let out = ref [] in
      let rec drain () =
        match pop q (-1) with
        | Some (_, v) ->
            out := v :: !out;
            drain ()
        | None -> ()
      in
      drain ();
      Alcotest.(check (list int))
        (name ^ " fifo ties")
        [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
        (List.rev !out))

let test_queue_nan () =
  each_backend backends (fun name q ->
      Alcotest.check_raises (name ^ " nan")
        (Invalid_argument "Scheduler.push: NaN time") (fun () ->
          q.Scheduler.push ~time:Float.nan ()))

let test_wheel_negative_time () =
  let q = Scheduler.instantiate Scheduler.wheel () in
  Alcotest.check_raises "wheel negative"
    (Invalid_argument "Scheduler.push: negative time (wheel)") (fun () ->
      q.Scheduler.push ~time:(-1e-9) ())

let prop_queue_sorted =
  QCheck.Test.make ~name:"schedulers pop in time order" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 200) (float_bound_inclusive 1000.))
    (fun times ->
      List.for_all
        (fun b ->
          let q = Scheduler.instantiate b () in
          List.iter (fun t -> q.Scheduler.push ~time:t ()) times;
          let rec drain last =
            match pop q () with
            | None -> true
            | Some (t, ()) -> t >= last && drain t
          in
          drain neg_infinity)
        backends)

(* The wheel spans its levels: sub-microsecond ticks land on level 0,
   minutes-scale delays cascade down from upper levels, and times beyond
   the 2^32-microtick horizon take the overflow path — all of it must
   drain in exactly sorted order. *)
let test_wheel_level_span () =
  let times =
    [ 0.; 1e-7; 3e-6; 0.9; 250.; 251.00000025; 4000.; 4294.97; 100000.; 1e9 ]
  in
  let q = Scheduler.instantiate Scheduler.wheel () in
  List.iter (fun t -> q.Scheduler.push ~time:t ()) (List.rev times);
  let rec drain acc =
    match pop q () with
    | Some (t, ()) -> drain (t :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list (float 0.))) "level span sorted" times (drain [])

(* The heap grows in place by doubling from a lazy empty start: the
   capacity trajectory is exactly 0, 64, 128, 256, ... with one
   reallocation per doubling. *)
let test_heap_capacity_trajectory () =
  let q = Scheduler.instantiate Scheduler.heap () in
  Alcotest.(check int) "lazy start" 0 (q.Scheduler.capacity ());
  let trajectory = ref [ 0 ] in
  for i = 1 to 300 do
    q.Scheduler.push ~time:(float_of_int i) i;
    let c = q.Scheduler.capacity () in
    if c <> List.hd !trajectory then trajectory := c :: !trajectory
  done;
  (* Growth points: capacity changes only when a push finds the arrays
     full, i.e. after pushes 1, 65, 129, 257 — four reallocations for
     300 elements, against 300 under the old Array.append regime. *)
  Alcotest.(check (list int))
    "doubling trajectory" [ 0; 64; 128; 256; 512 ]
    (List.rev !trajectory)

let test_of_name () =
  (match Scheduler.of_name "WHEEL" with
  | Ok b ->
      Alcotest.(check string) "of_name wheel" "wheel" (Scheduler.backend_name b)
  | Error e -> Alcotest.fail e);
  match Scheduler.of_name "splay" with
  | Ok _ -> Alcotest.fail "splay accepted"
  | Error _ -> ()

let test_sim_order_and_clock () =
  List.iter
    (fun sched ->
      let sim = Sim.create ~sched () in
      let log = ref [] in
      ignore (Sim.schedule sim ~at:2. (fun () -> log := ("b", Sim.now sim) :: !log));
      ignore (Sim.schedule sim ~at:1. (fun () -> log := ("a", Sim.now sim) :: !log));
      Sim.run sim;
      Alcotest.(check (list (pair string (float 0.))))
        (Scheduler.backend_name sched ^ " order & clock")
        [ ("a", 1.); ("b", 2.) ]
        (List.rev !log))
    backends

let test_sim_default_backend () =
  let sim = Sim.create () in
  Alcotest.(check string) "default is heap" "heap" (Sim.sched_name sim);
  let prev = Scheduler.default () in
  Scheduler.set_default Scheduler.wheel;
  Fun.protect
    ~finally:(fun () -> Scheduler.set_default prev)
    (fun () ->
      let sim = Sim.create () in
      Alcotest.(check string) "domain default applies" "wheel"
        (Sim.sched_name sim);
      let sim = Sim.create ~sched:Scheduler.heap () in
      Alcotest.(check string) "?sched wins" "heap" (Sim.sched_name sim))

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule sim ~at:1. (fun () -> fired := true) in
  Sim.cancel h;
  Sim.run sim;
  Alcotest.(check bool) "cancelled" false !fired;
  Alcotest.(check bool) "flag" true (Sim.cancelled h)

let test_sim_past () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~at:5. (fun () -> ()));
  Sim.run sim;
  Alcotest.(check bool) "raises on past" true
    (try
       ignore (Sim.schedule sim ~at:1. (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_sim_every () =
  List.iter
    (fun sched ->
      let sim = Sim.create ~sched () in
      let count = ref 0 in
      let h = Sim.every sim ~start:0. ~period:1. (fun () -> incr count) in
      Sim.run_until sim 5.5;
      Alcotest.(check int) "six ticks in [0,5]" 6 !count;
      Sim.cancel h;
      Sim.run_until sim 10.;
      Alcotest.(check int) "no ticks after cancel" 6 !count)
    backends

let test_sim_run_until_clock () =
  let sim = Sim.create () in
  Sim.run_until sim 3.;
  Alcotest.(check (float 0.)) "clock advances to horizon" 3. (Sim.now sim)

let test_sim_nested_schedule () =
  List.iter
    (fun sched ->
      let sim = Sim.create ~sched () in
      let log = ref [] in
      ignore
        (Sim.schedule sim ~at:1. (fun () ->
             log := 1 :: !log;
             ignore
               (Sim.schedule_after sim ~delay:0.5 (fun () -> log := 2 :: !log))));
      Sim.run sim;
      Alcotest.(check (list int))
        (Scheduler.backend_name sched ^ " nested")
        [ 1; 2 ]
        (List.rev !log))
    backends

(* Backend stats probes: deterministic counts of simulated work. *)
let test_heap_stats () =
  let q = Scheduler.Heap.create () in
  for i = 0 to 99 do
    Scheduler.Heap.push q ~time:(float_of_int i) i
  done;
  let cell = { Scheduler.time = 0. } in
  for _ = 0 to 49 do
    ignore (Scheduler.Heap.pop_before q cell ~bound:infinity (-1))
  done;
  let s = Scheduler.Heap.stats q in
  Alcotest.(check int) "heap pushes" 100 s.Mcc_obs.Profile.pushes;
  Alcotest.(check int) "heap max size" 100 s.Mcc_obs.Profile.max_size;
  Alcotest.(check (list int))
    "heap capacity trajectory" [ 64; 128 ] s.Mcc_obs.Profile.capacities;
  Alcotest.(check (list int))
    "heap has no levels" [] s.Mcc_obs.Profile.level_places

let test_wheel_stats () =
  let q = Scheduler.Wheel.create () in
  (* 3 level-0 placements, 1 higher-level, 1 beyond the 2^37 horizon. *)
  Scheduler.Wheel.push q ~time:0.000001 "a";
  Scheduler.Wheel.push q ~time:0.000002 "b";
  Scheduler.Wheel.push q ~time:0.000003 "c";
  Scheduler.Wheel.push q ~time:1.0 "d";
  Scheduler.Wheel.push q ~time:1e12 "overflow";
  let s = Scheduler.Wheel.stats q in
  Alcotest.(check int) "wheel pushes" 5 s.Mcc_obs.Profile.pushes;
  Alcotest.(check int) "wheel max size" 5 s.Mcc_obs.Profile.max_size;
  Alcotest.(check int) "wheel levels" 4
    (List.length s.Mcc_obs.Profile.level_places);
  Alcotest.(check int) "wheel level-0 places" 3
    (List.nth s.Mcc_obs.Profile.level_places 0);
  Alcotest.(check int) "wheel overflow places" 1 s.Mcc_obs.Profile.overflow;
  Alcotest.(check bool) "wheel grew once" true
    (s.Mcc_obs.Profile.free_misses >= 1);
  (* Drain everything: the recycled cells show up as free-list hits on
     the next batch of pushes. *)
  let cell = { Scheduler.time = 0. } in
  while not (Scheduler.Wheel.is_empty q) do
    ignore (Scheduler.Wheel.pop_before q cell ~bound:infinity "")
  done;
  Scheduler.Wheel.push q ~time:2.0 "e";
  let s = Scheduler.Wheel.stats q in
  Alcotest.(check bool) "wheel free-list hit" true
    (s.Mcc_obs.Profile.free_hits >= 1)

(* --- Trains and timers ------------------------------------------------ *)

(* The keyed primitives, or the same schedule spelled out the old way:
   a post per train element, and a [schedule] per arm that cancels the
   timer's previous one. *)
type prims = {
  post : at:float -> (unit -> unit) -> unit;
  train : count:int -> at:float -> spacing:float -> (int -> unit) -> unit;
  arm : int -> at:float -> (unit -> unit) -> unit;
  disarm : int -> unit;
}

let timers = 3

let keyed sim =
  let tms = Array.init timers (fun _ -> Sim.timer sim) in
  {
    post = (fun ~at f -> Sim.post sim ~at f);
    train =
      (fun ~count ~at ~spacing f -> Sim.post_train sim ~count ~at ~spacing f);
    arm = (fun k ~at f -> Sim.arm tms.(k) ~at f);
    disarm = (fun k -> Sim.disarm tms.(k));
  }

let spelled_out sim =
  let pending = Array.make timers None in
  let disarm k =
    Option.iter Sim.cancel pending.(k);
    pending.(k) <- None
  in
  {
    post = (fun ~at f -> Sim.post sim ~at f);
    train =
      (fun ~count ~at ~spacing f ->
        for i = 0 to count - 1 do
          Sim.post sim ~at:(at +. (float_of_int i *. spacing)) (fun () -> f i)
        done);
    arm =
      (fun k ~at f ->
        disarm k;
        pending.(k) <-
          Some
            (Sim.schedule sim ~at (fun () ->
                 pending.(k) <- None;
                 f ())));
    disarm;
  }

(* A seeded random program: every fired event logs (time, label) and
   draws up to two further actions from one PRNG stream, so both
   spellings make the same draws exactly as long as they fire in the
   same order.  Times sit on a 0.25 s grid from the current clock, so
   posts, train elements and timer expiries tie often, the current
   instant included.  [moves] counts the timer arms by kind: fresh,
   later than the pending expiry, earlier than it. *)
let run_program ~seed ~moves sched build =
  let sim = Sim.create ~sched () in
  let p = build sim in
  let prng = Prng.create seed in
  let log = ref [] and budget = ref 300 and id = ref 0 in
  let pending = Array.make timers None in
  let rec fired label () =
    log := (Sim.now sim, label) :: !log;
    act 2
  and act n =
    for _ = 1 to n do
      if !budget > 0 then begin
        decr budget;
        incr id;
        let now = Sim.now sim in
        let at k = now +. (0.25 *. float_of_int k) in
        match Prng.int prng 6 with
        | 0 | 1 ->
            p.post ~at:(at (Prng.int prng 6)) (fired (Printf.sprintf "p%d" !id))
        | 2 ->
            let count = 1 + Prng.int prng 5 in
            let spacing = 0.25 *. float_of_int (Prng.int prng 3) in
            let name = Printf.sprintf "t%d" !id in
            p.train ~count ~at:(at (Prng.int prng 6)) ~spacing (fun i ->
                fired (Printf.sprintf "%s.%d" name i) ())
        | 3 | 4 ->
            let k = Prng.int prng timers in
            let expiry = at (Prng.int prng 10) in
            let kind =
              match pending.(k) with
              | Some e when e > now -> if expiry >= e then 1 else 2
              | Some _ | None -> 0
            in
            moves.(kind) <- moves.(kind) + 1;
            pending.(k) <- Some expiry;
            let name = Printf.sprintf "k%d.%d" k !id in
            p.arm k ~at:expiry (fun () ->
                pending.(k) <- None;
                fired name ())
        | _ ->
            let k = Prng.int prng timers in
            pending.(k) <- None;
            p.disarm k
      end
    done
  in
  act 6;
  Sim.run sim;
  (List.rev !log, Sim.events_executed sim)

let test_keyed_differential () =
  let moves = Array.make 3 0 in
  for seed = 1 to 40 do
    let runs =
      List.concat_map
        (fun sched ->
          List.map
            (fun (name, build) ->
              ( Printf.sprintf "seed %d %s %s" seed
                  (Scheduler.backend_name sched) name,
                run_program ~seed ~moves sched build ))
            [ ("spelled-out", spelled_out); ("keyed", keyed) ])
        backends
    in
    match runs with
    | (_, (log, events)) :: rest ->
        Alcotest.(check bool) "program fires" true (List.length log > 50);
        List.iter
          (fun (name, (log', events')) ->
            Alcotest.(check (list (pair (float 0.) string)))
              (name ^ " fired") log log';
            Alcotest.(check int) (name ^ " events") events events')
          rest
    | [] -> assert false
  done;
  Array.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "arm kind %d exercised" i)
        true (n > 0))
    moves

(* One train entry and one timer entry stand for a thousand events
   each, and the push counter still counts every key. *)
let test_keyed_queue_load () =
  List.iter
    (fun sched ->
      let name = Scheduler.backend_name sched in
      let sim = Sim.create ~sched () in
      let tm = Sim.timer sim and timeouts = ref 0 in
      Sim.post_train sim ~count:1000 ~at:0. ~spacing:0.01 (fun _ ->
          Sim.arm tm ~at:(Sim.now sim +. 0.5) (fun () -> incr timeouts));
      ignore (Mcc_obs.Profile.take_sched_stats ());
      Sim.run sim;
      Alcotest.(check int) (name ^ " one timeout") 1 !timeouts;
      Alcotest.(check int) (name ^ " events") 1001 (Sim.events_executed sim);
      match Mcc_obs.Profile.take_sched_stats () with
      | Some s ->
          Alcotest.(check int) (name ^ " keys issued") 2000 s.Mcc_obs.Profile.pushes;
          Alcotest.(check int) (name ^ " queue high-water") 2
            s.Mcc_obs.Profile.max_size
      | None -> Alcotest.fail "no scheduler stats")
    backends

let test_keyed_rejects () =
  let sim = Sim.create () in
  Sim.run_until sim 1.;
  let rejects what f =
    Alcotest.(check bool) what true
      (try
         f ();
         false
       with Invalid_argument _ -> true)
  in
  rejects "train in the past" (fun () ->
      Sim.post_train sim ~count:2 ~at:0.5 ~spacing:0.1 ignore);
  rejects "decreasing train" (fun () ->
      Sim.post_train sim ~count:2 ~at:2. ~spacing:(-0.1) ignore);
  rejects "NaN spacing" (fun () ->
      Sim.post_train sim ~count:2 ~at:2. ~spacing:Float.nan ignore);
  rejects "negative count" (fun () ->
      Sim.post_train sim ~count:(-1) ~at:2. ~spacing:0.1 ignore);
  rejects "timer in the past" (fun () ->
      Sim.arm (Sim.timer sim) ~at:0.5 ignore);
  Sim.post_train sim ~count:0 ~at:2. ~spacing:0.1 (fun _ ->
      Alcotest.fail "empty train fired");
  Sim.run sim;
  Alcotest.(check int) "nothing fired" 0 (Sim.events_executed sim)

let suite =
  ( "engine",
    [
      Alcotest.test_case "queue order" `Quick test_queue_order;
      Alcotest.test_case "queue fifo ties" `Quick test_queue_fifo_ties;
      Alcotest.test_case "queue nan" `Quick test_queue_nan;
      Alcotest.test_case "wheel negative time" `Quick test_wheel_negative_time;
      Alcotest.test_case "wheel level span" `Quick test_wheel_level_span;
      Alcotest.test_case "heap capacity trajectory" `Quick
        test_heap_capacity_trajectory;
      Alcotest.test_case "backend of_name" `Quick test_of_name;
      Alcotest.test_case "heap stats" `Quick test_heap_stats;
      Alcotest.test_case "wheel stats" `Quick test_wheel_stats;
      QCheck_alcotest.to_alcotest prop_queue_sorted;
      Alcotest.test_case "sim order and clock" `Quick test_sim_order_and_clock;
      Alcotest.test_case "sim default backend" `Quick test_sim_default_backend;
      Alcotest.test_case "sim cancel" `Quick test_sim_cancel;
      Alcotest.test_case "sim rejects past" `Quick test_sim_past;
      Alcotest.test_case "sim periodic" `Quick test_sim_every;
      Alcotest.test_case "run_until clock" `Quick test_sim_run_until_clock;
      Alcotest.test_case "nested schedule" `Quick test_sim_nested_schedule;
      Alcotest.test_case "trains and timers match posts and cancels" `Quick
        test_keyed_differential;
      Alcotest.test_case "trains and timers keep one entry" `Quick
        test_keyed_queue_load;
      Alcotest.test_case "trains and timers reject bad times" `Quick
        test_keyed_rejects;
    ] )
