open Mcc_util

let test_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let test_different_seeds () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.int64 a = Prng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_split_independent () =
  let parent = Prng.create 5 in
  let child = Prng.split parent in
  let a = Prng.int64 child in
  (* Advancing the parent must not affect the child's already-derived
     state determinism: recreate and compare. *)
  let parent2 = Prng.create 5 in
  let child2 = Prng.split parent2 in
  Alcotest.(check int64) "split deterministic" a (Prng.int64 child2)

let test_copy () =
  let a = Prng.create 9 in
  ignore (Prng.int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.int64 a)
    (Prng.int64 b)

let test_bits_range () =
  let p = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.bits p 16 in
    Alcotest.(check bool) "16-bit range" true (v >= 0 && v < 65536)
  done

let test_bits_invalid () =
  let p = Prng.create 3 in
  Alcotest.check_raises "bits 0" (Invalid_argument "Prng.bits") (fun () ->
      ignore (Prng.bits p 0));
  Alcotest.check_raises "bits 63" (Invalid_argument "Prng.bits") (fun () ->
      ignore (Prng.bits p 63))

let test_int_bound_invalid () =
  let p = Prng.create 3 in
  Alcotest.check_raises "int 0" (Invalid_argument "Prng.int") (fun () ->
      ignore (Prng.int p 0))

let test_exponential_positive () =
  let p = Prng.create 17 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "positive" true (Prng.exponential p ~mean:2. >= 0.)
  done

let test_exponential_mean () =
  let p = Prng.create 17 in
  let n = 20000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential p ~mean:3.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 3" true (abs_float (mean -. 3.) < 0.2)

(* [Prng.int] as it was before its width became a bit-length
   computation, copied as the reference.  Its width search counts up
   from 1 until [1 lsl w >= bound]; above 2^61 that never holds (1 lsl 62
   wraps to min_int), so the search does not terminate and such bounds
   are checked against [reference_draw] at width 62, the only width
   [Prng.bits] accepts that covers them. *)
let reference_draw t w bound =
  let rec draw () =
    let v = Prng.bits t w in
    if v < bound then v else draw ()
  in
  draw ()

let reference_int t bound =
  if bound <= 0 then invalid_arg "Prng.int";
  let rec width w = if 1 lsl w >= bound then w else width (w + 1) in
  let w = width 1 in
  reference_draw t w bound

let test_int_stream_pinned () =
  let powers = List.init 61 (fun k -> 1 lsl (k + 1)) in
  let bounds =
    [ 1; 2; 3; Gf.p; Gf.p - 1; Gf.p + 1; max_int; max_int - 1 ]
    @ List.concat_map (fun p -> [ p - 1; p; p + 1 ]) powers
  in
  List.iter
    (fun bound ->
      let reference t =
        if bound > 1 lsl 61 then reference_draw t 62 bound
        else reference_int t bound
      in
      for seed = 0 to 99 do
        let a = Prng.create seed and b = Prng.create seed in
        for draw = 1 to 8 do
          let got = Prng.int a bound and want = reference b in
          if got <> want then
            Alcotest.failf "bound %d seed %d draw %d: %d, reference %d" bound
              seed draw got want
        done
      done)
    bounds

let prop_int_in_bound =
  QCheck.Test.make ~name:"Prng.int always in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let p = Prng.create seed in
      let v = Prng.int p bound in
      v >= 0 && v < bound)

let prop_float_unit =
  QCheck.Test.make ~name:"Prng.float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let p = Prng.create seed in
      let v = Prng.float p in
      v >= 0. && v < 1.)

let suite =
  ( "prng",
    [
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "different seeds" `Quick test_different_seeds;
      Alcotest.test_case "split independent" `Quick test_split_independent;
      Alcotest.test_case "copy" `Quick test_copy;
      Alcotest.test_case "bits range" `Quick test_bits_range;
      Alcotest.test_case "bits invalid" `Quick test_bits_invalid;
      Alcotest.test_case "int invalid" `Quick test_int_bound_invalid;
      Alcotest.test_case "int stream pinned" `Quick test_int_stream_pinned;
      Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
      Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
      QCheck_alcotest.to_alcotest prop_int_in_bound;
      QCheck_alcotest.to_alcotest prop_float_unit;
    ] )
