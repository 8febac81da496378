open Mcc_util

let feq ?(eps = 1e-9) a b = abs_float (a -. b) < eps

let test_mean () =
  Alcotest.(check bool) "mean" true (feq (Stats.mean [ 1.; 2.; 3. ]) 2.);
  Alcotest.(check bool) "empty" true (feq (Stats.mean []) 0.)

let test_jain () =
  Alcotest.(check (float 1e-9)) "equal" 1. (Stats.jain_fairness [ 2.; 2.; 2. ]);
  Alcotest.(check (float 1e-9)) "one hog" (1. /. 3.)
    (Stats.jain_fairness [ 1.; 0.; 0. ]);
  Alcotest.(check (float 1e-9)) "all zero" 1. (Stats.jain_fairness [ 0.; 0. ])

let prop_jain_bounds =
  QCheck.Test.make ~name:"Jain index in [1/n, 1]" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 20) (float_bound_inclusive 100.))
    (fun xs ->
      let j = Stats.jain_fairness xs in
      let n = float_of_int (List.length xs) in
      j >= (1. /. n) -. 1e-9 && j <= 1. +. 1e-9)

let suite =
  ( "stats",
    [
      Alcotest.test_case "mean" `Quick test_mean;
      Alcotest.test_case "jain" `Quick test_jain;
      QCheck_alcotest.to_alcotest prop_jain_bounds;
    ] )
