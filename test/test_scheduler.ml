(* Differential tests for the scheduler backends.

   The Scheduler contract promises that every backend pops the same
   (time, value) sequence for the same pushes — the backend choice is a
   performance knob, never a semantics knob.  These tests drive heap
   and wheel through randomized push/pop interleavings (with deliberate
   ties, sub-tick spacings and multi-level horizons) and require the
   sequences to match element for element, then check the same promise
   end-to-end: a Runner batch must emit byte-identical deterministic
   output whichever backend and job count it runs on. *)

module Scheduler = Mcc_engine.Scheduler
module Runner = Mcc_core.Runner
module Sink = Mcc_core.Sink
module Spec = Mcc_core.Spec
module Flid = Mcc_mcast.Flid
module Prng = Mcc_util.Prng

(* Draw times that stress every ordering path: exact ties (same float),
   sub-tick ties (distinct floats quantising to one wheel bucket),
   level-0 neighbours, higher wheel levels, and the overflow horizon. *)
let random_time prng =
  match Prng.int prng 6 with
  | 0 -> 1e-3 *. float_of_int (Prng.int prng 20) (* exact ties *)
  | 1 -> 1e-3 +. (1e-8 *. float_of_int (Prng.int prng 50)) (* sub-tick *)
  | 2 -> Prng.float prng *. 8e-3 (* level 0 *)
  | 3 -> Prng.float prng *. 2. (* levels 1-2 *)
  | 4 -> Prng.float prng *. 3600. (* level 3 *)
  | _ -> 140000. +. (Prng.float prng *. 40000.) (* overflow *)

let pop = Test_engine.pop

let drain q =
  let rec go acc =
    match pop q 0 with
    | None -> List.rev acc
    | Some (t, v) -> go ((t, v) :: acc)
  in
  go []

let check_same_event msg (t1, v1) (t2, v2) =
  Alcotest.(check (float 0.)) (msg ^ " time") t1 t2;
  Alcotest.(check int) (msg ^ " value") v1 v2

(* Random push/pop interleavings: both backends must pop identical
   sequences at every step. *)
let test_differential_interleaved () =
  let prng = Prng.create 2003 in
  for trial = 1 to 40 do
    let h = Scheduler.instantiate Scheduler.heap () in
    let w = Scheduler.instantiate Scheduler.wheel () in
    let next = ref 0 in
    let ops = 200 + Prng.int prng 200 in
    for op = 1 to ops do
      match Prng.int prng 10 with
      | 0 | 1 | 2 ->
          (* pop from both, compare *)
          let ph = pop h 0 and pw = pop w 0 in
          (match (ph, pw) with
          | None, None -> ()
          | Some e1, Some e2 ->
              check_same_event
                (Printf.sprintf "trial %d op %d" trial op)
                e1 e2
          | _ ->
              Alcotest.failf "trial %d op %d: one backend empty" trial op)
      | _ ->
          let t = random_time prng in
          incr next;
          h.Scheduler.push ~time:t !next;
          w.Scheduler.push ~time:t !next
    done;
    Alcotest.(check int)
      (Printf.sprintf "trial %d sizes" trial)
      (h.Scheduler.size ()) (w.Scheduler.size ());
    let dh = drain h and dw = drain w in
    List.iter2 (check_same_event (Printf.sprintf "trial %d drain" trial)) dh dw
  done

(* Heavy same-bucket batches: thousands of events inside one wheel tick
   exercise the drain heapsort and the sorted drain_insert path (pushes
   landing on the tick currently draining). *)
let test_differential_same_tick () =
  let prng = Prng.create 411 in
  let h = Scheduler.instantiate Scheduler.heap () in
  let w = Scheduler.instantiate Scheduler.wheel () in
  for i = 1 to 2000 do
    let t = 5e-3 +. (1e-9 *. float_of_int (Prng.int prng 300)) in
    h.Scheduler.push ~time:t i;
    w.Scheduler.push ~time:t i
  done;
  (* pop half, then push more onto the draining tick *)
  for _ = 1 to 1000 do
    match (pop h 0, pop w 0) with
    | Some e1, Some e2 -> check_same_event "same-tick pop" e1 e2
    | _ -> Alcotest.fail "same-tick: unexpected empty"
  done;
  for i = 2001 to 2500 do
    let t = 5e-3 +. (1e-9 *. float_of_int (Prng.int prng 300)) in
    h.Scheduler.push ~time:t i;
    w.Scheduler.push ~time:t i
  done;
  List.iter2 (check_same_event "same-tick drain") (drain h) (drain w)

(* pop_into and pop_before pop in order on both backends, and leave the
   ref or cell untouched when they decline. *)
let test_bounded_pop_contract () =
  List.iter
    (fun backend ->
      let name = Scheduler.backend_name backend in
      let q = Scheduler.instantiate backend () in
      let r = ref (-1.) and cell = { Scheduler.time = -1. } in
      Alcotest.(check int)
        (name ^ " empty pop_into default")
        0
        (q.Scheduler.pop_into r 0);
      Alcotest.(check (float 0.)) (name ^ " ref untouched") (-1.) !r;
      q.Scheduler.push ~time:2. 22;
      q.Scheduler.push ~time:1. 11;
      q.Scheduler.push ~time:3. 33;
      Alcotest.(check int)
        (name ^ " pop_before declines")
        0
        (q.Scheduler.pop_before cell ~bound:0.5 0);
      Alcotest.(check (float 0.))
        (name ^ " cell untouched") (-1.) cell.Scheduler.time;
      Alcotest.(check int)
        (name ^ " pop_before pops")
        11
        (q.Scheduler.pop_before cell ~bound:1.5 0);
      Alcotest.(check (float 0.)) (name ^ " cell time") 1. cell.Scheduler.time;
      Alcotest.(check int)
        (name ^ " pop_into pops")
        22
        (q.Scheduler.pop_into r 0);
      Alcotest.(check (float 0.)) (name ^ " ref time") 2. !r;
      Alcotest.(check int) (name ^ " one left") 1 (q.Scheduler.size ()))
    Scheduler.all

(* A bounded loop over random times pops exactly the events <= bound,
   identically on both backends. *)
let test_pop_before_differential () =
  let prng = Prng.create 77 in
  let h = Scheduler.instantiate Scheduler.heap () in
  let w = Scheduler.instantiate Scheduler.wheel () in
  for i = 1 to 500 do
    let t = random_time prng in
    h.Scheduler.push ~time:t i;
    w.Scheduler.push ~time:t i
  done;
  let cell_h = { Scheduler.time = 0. } and cell_w = { Scheduler.time = 0. } in
  List.iter
    (fun bound ->
      let continue = ref true in
      while !continue do
        let vh = h.Scheduler.pop_before cell_h ~bound 0 in
        let vw = w.Scheduler.pop_before cell_w ~bound 0 in
        Alcotest.(check int) "bounded value" vh vw;
        if vh = 0 then continue := false
        else
          Alcotest.(check (float 0.))
            "bounded time" cell_h.Scheduler.time cell_w.Scheduler.time
      done)
    [ 1e-3; 5e-3; 1.; 3600.; infinity ];
  Alcotest.(check bool) "heap drained" true (h.Scheduler.is_empty ());
  Alcotest.(check bool) "wheel drained" true (w.Scheduler.is_empty ())

(* Reference model for every backend: a list sorted by (time, seq),
   the key the backends order by.  Random interleavings of every queue
   operation, with tie-heavy times and queues of hundreds to about two
   thousand events (five to seven levels of the 4-ary heap, with
   partial last sibling groups), must agree with it at every step.
   Keys reserved in blocks are pushed later, in any order, at times no
   earlier than the last pop (the engine's rule), among plain pushes.
   The queue drains at the end through [pop_before] with no bound, the
   way [Sim.run] empties it. *)
type queue_op =
  | Push of float
  | Reserve of int
  | Push_keyed of int * float  (** pending key index, time *)
  | Pop_into
  | Pop_before of float

let show_queue_op = function
  | Push t -> Printf.sprintf "push %h" t
  | Reserve n -> Printf.sprintf "reserve %d" n
  | Push_keyed (k, t) -> Printf.sprintf "push_keyed #%d %h" k t
  | Pop_into -> "pop_into"
  | Pop_before b -> Printf.sprintf "pop_before %h" b

(* Mostly a handful of exactly tied times, some spread, and the
   extremes the heap must order like any other time. *)
let gen_heap_time =
  QCheck.Gen.(
    frequency
      [
        (8, map (fun k -> 0.5 *. float_of_int k) (int_bound 15));
        (2, float_range (-10.) 10.);
        (1, oneofl [ infinity; neg_infinity; -0.; 0. ]);
      ])

(* The wheel takes non-negative times only: the same ties, sub-tick
   spacings that share a bucket, and times past its horizon. *)
let gen_wheel_time =
  QCheck.Gen.(
    frequency
      [
        (8, map (fun k -> 0.5 *. float_of_int k) (int_bound 15));
        (2, float_range 0. 10.);
        (1, map (fun k -> 1. +. (1e-8 *. float_of_int k)) (int_bound 50));
        (1, oneofl [ infinity; 0.; 2e5 ]);
      ])

let gen_queue_ops gen_time =
  QCheck.Gen.(
    list_size (int_range 1000 5000)
      (frequency
         [
           (5000, map (fun t -> Push t) gen_time);
           (300, map (fun n -> Reserve n) (int_bound 12));
           (1700, map2 (fun k t -> Push_keyed (k, t)) nat gen_time);
           (1500, return Pop_into);
           (1500, map (fun b -> Pop_before b) gen_time);
         ]))

let key_before (t1, s1, _) (t2, s2, _) = t1 < t2 || (t1 = t2 && s1 < s2)

let rec model_insert e = function
  | x :: rest when key_before x e -> x :: model_insert e rest
  | l -> e :: l

(* [monotone] also holds plain pushes to no earlier than the last pop:
   the wheel's own contract, where the heap takes any time. *)
let prop_matches_model ~name ~monotone gen_time (module B : Scheduler.S) =
  QCheck.Test.make ~name ~count:30
    (QCheck.make (gen_queue_ops gen_time) ~print:(fun ops ->
         String.concat "; " (List.map show_queue_op ops)))
    (fun ops ->
      let q = B.create () in
      let model = ref [] and next_seq = ref 0 and next_value = ref 0 in
      let pending = ref [] and last_pop = ref neg_infinity in
      let r = ref nan and cell = { Scheduler.time = nan } in
      let fail op fmt =
        Printf.ksprintf
          (fun msg -> QCheck.Test.fail_reportf "%s: %s" (show_queue_op op) msg)
          fmt
      in
      let not_before_last t = if t < !last_pop then !last_pop else t in
      let popped op v t =
        match !model with
        | (mt, _, want) :: rest ->
            if v <> want || not (Float.equal t mt) then
              fail op "got %d at %h, model %d at %h" v t want mt;
            model := rest;
            last_pop := t
        | [] -> fail op "popped %d from an empty model" v
      in
      let add ~time ~seq push =
        incr next_value;
        push !next_value;
        model := model_insert (time, seq, !next_value) !model
      in
      List.iter
        (fun op ->
          (match op with
          | Push t ->
              let time = if monotone then not_before_last t else t in
              add ~time ~seq:!next_seq (B.push q ~time);
              incr next_seq
          | Reserve n ->
              let first = B.reserve q n in
              if first <> !next_seq then fail op "first %d, model %d" first !next_seq;
              pending := !pending @ List.init n (fun i -> first + i);
              next_seq := !next_seq + n
          | Push_keyed (k, t) -> (
              match !pending with
              | [] -> ()
              | keys ->
                  let seq = List.nth keys (k mod List.length keys) in
                  pending := List.filter (fun s -> s <> seq) keys;
                  let time = not_before_last t in
                  add ~time ~seq (B.push_keyed q ~time ~seq))
          | Pop_into ->
              r := nan;
              let v = B.pop_into q r 0 in
              if v = 0 then begin
                if !model <> [] then fail op "declined, model is not empty";
                if not (Float.is_nan !r) then fail op "ref written"
              end
              else popped op v !r
          | Pop_before bound ->
              cell.Scheduler.time <- nan;
              let v = B.pop_before q cell ~bound 0 in
              let due = match !model with (t, _, _) :: _ -> t <= bound | [] -> false in
              if v = 0 then begin
                if due then fail op "declined a due event";
                if not (Float.is_nan cell.Scheduler.time) then fail op "cell written"
              end
              else if not due then fail op "popped %d past the bound" v
              else popped op v cell.Scheduler.time);
          if B.size q <> List.length !model then
            fail op "size %d, model %d" (B.size q) (List.length !model))
        ops;
      if (B.stats q).Mcc_obs.Profile.pushes <> !next_seq then
        QCheck.Test.fail_report "pushes is not the keys issued";
      let rec drain () =
        match (B.pop_before q cell ~bound:infinity 0, !model) with
        | 0, [] -> true
        | v, (mt, _, mv) :: rest
          when v = mv && Float.equal cell.Scheduler.time mt ->
            model := rest;
            drain ()
        | _ -> QCheck.Test.fail_report "final drain disagrees with the model"
      in
      drain ())

let prop_heap_matches_model =
  prop_matches_model ~name:"Heap matches a sorted-list model" ~monotone:false
    gen_heap_time (module Scheduler.Heap)

let prop_wheel_matches_model =
  prop_matches_model ~name:"Wheel matches a sorted-list model" ~monotone:true
    gen_wheel_time (module Scheduler.Wheel)

(* A keyed push must name a key [reserve] issued. *)
let test_push_keyed_unissued () =
  List.iter
    (fun backend ->
      let q = Scheduler.instantiate backend () in
      let first = q.Scheduler.reserve 2 in
      q.Scheduler.push_keyed ~time:1. ~seq:(first + 1) ();
      Alcotest.check_raises
        (Scheduler.backend_name backend ^ " unissued")
        (Invalid_argument "Scheduler.push_keyed: seq was not reserved")
        (fun () -> q.Scheduler.push_keyed ~time:1. ~seq:(first + 2) ()))
    Scheduler.all

(* A popped value can outlive its pop: the heap's parking slot and the
   wheel's cell keep it reachable until a push reuses the slot.  Both
   reuse freed slots before growing, so as many fresh pushes as there
   were pops release every popped value, and exactly the queued ones
   stay.  Fresh blocks, watched through a [Weak] array, are pushed and
   partly popped by a function of their own, so no caller frame holds
   one when the collector runs; the queue itself stays live
   throughout, so only slot reuse can release them.  A push that grows
   the store fills the new slots with its own value, so late unwatched
   values first take the store to its final 1024 slots. *)
let watched_values = 300
let popped_values = watched_values / 3
let prefill = 1024 - watched_values

let[@inline never] push_watched q watched =
  for _ = 1 to prefill do
    q.Scheduler.push ~time:1000. Bytes.empty
  done;
  for i = 0 to watched_values - 1 do
    let v = Bytes.make 8 'v' in
    Weak.set watched i (Some v);
    q.Scheduler.push ~time:(float_of_int (i mod 17)) v
  done;
  let cell = { Scheduler.time = 0. } in
  for _ = 1 to popped_values do
    ignore (q.Scheduler.pop_before cell ~bound:infinity Bytes.empty)
  done

let test_reuse_releases_values backend () =
  let q = Scheduler.instantiate backend () in
  let watched = Weak.create watched_values in
  push_watched q watched;
  let reachable () =
    List.length
      (List.filter (Weak.check watched) (List.init watched_values Fun.id))
  in
  Gc.full_major ();
  Alcotest.(check int) "queued and parked values are reachable"
    watched_values (reachable ());
  for _ = 1 to popped_values do
    q.Scheduler.push ~time:100. Bytes.empty
  done;
  Gc.full_major ();
  Alcotest.(check int) "reachable after reuse"
    (watched_values - popped_values)
    (reachable ());
  Alcotest.(check int) "the queue is still in use" (prefill + watched_values)
    (q.Scheduler.size ())

(* End-to-end: a Runner batch's sink output must not depend on the
   scheduler backend or the job count.  Everything before the profile is
   the deterministic record; the profile legitimately differs (it names
   the backend and its queue capacity), so each line is cut there. *)
let strip_profile s =
  String.split_on_char '\n' s
  |> List.map (fun line ->
         let marker = ",\"profile\":" in
         let m = String.length marker in
         let rec find i =
           if i + m > String.length line then line
           else if String.sub line i m = marker then String.sub line 0 i
           else find (i + 1)
         in
         find 0)
  |> String.concat "\n"

let batch () =
  List.map
    (fun (name, spec) ->
      { Runner.name; group = name; doc = name;
        spec = Spec.scale_time spec ~factor:0.1 })
    [
      ("attack", Spec.Attack { Spec.default_attack with Spec.mode = Flid.Robust });
      ("sweep2", Spec.Sweep { Spec.default_sweep with Spec.sessions = 2 });
    ]

let capture ~jobs ~sched =
  let jsonl = Buffer.create 4096 in
  ignore
    (Runner.run_batch ~jobs ~sched
       ~sinks:[ Sink.jsonl (Buffer.add_string jsonl) ]
       (batch ()));
  Buffer.contents jsonl

let test_runner_backend_identical () =
  let outputs =
    List.concat_map
      (fun sched ->
        List.map (fun jobs -> strip_profile (capture ~jobs ~sched)) [ 1; 4 ])
      Scheduler.all
  in
  match outputs with
  | first :: rest ->
      Alcotest.(check bool) "output non-empty" true (String.length first > 0);
      List.iteri
        (fun i other ->
          Alcotest.(check string)
            (Printf.sprintf "backend/jobs combination %d matches" (i + 1))
            first other)
        rest
  | [] -> Alcotest.fail "no outputs"

let suite =
  ( "scheduler",
    [
      Alcotest.test_case "differential: random interleavings" `Quick
        test_differential_interleaved;
      Alcotest.test_case "differential: same-tick batches" `Quick
        test_differential_same_tick;
      Alcotest.test_case "bounded pop contract" `Quick test_bounded_pop_contract;
      Alcotest.test_case "differential: pop_before" `Quick
        test_pop_before_differential;
      QCheck_alcotest.to_alcotest prop_heap_matches_model;
      QCheck_alcotest.to_alcotest prop_wheel_matches_model;
      Alcotest.test_case "push_keyed needs a reserved seq" `Quick
        test_push_keyed_unissued;
      Alcotest.test_case "heap: parked values do not outlive reuse" `Quick
        (test_reuse_releases_values Scheduler.heap);
      Alcotest.test_case "wheel: parked values do not outlive reuse" `Quick
        (test_reuse_releases_values Scheduler.wheel);
      Alcotest.test_case "runner output backend-independent" `Slow
        test_runner_backend_identical;
    ] )
