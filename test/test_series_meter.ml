open Mcc_util

let test_series_order () =
  let s = Series.create () in
  Series.add s ~time:1. ~value:10.;
  Series.add s ~time:2. ~value:20.;
  Alcotest.check_raises "backwards"
    (Invalid_argument "Series.add: time going backwards") (fun () ->
      Series.add s ~time:1.5 ~value:0.)

let test_meter_bins () =
  let m = Meter.create () in
  Meter.record m ~time:0.2 ~bytes:125;
  Meter.record m ~time:0.7 ~bytes:125;
  Meter.record m ~time:1.5 ~bytes:250;
  Alcotest.(check int) "total" 500 (Meter.total_bytes m);
  (match Meter.throughput_kbps m with
  | (_, k1) :: (_, k2) :: _ ->
      Alcotest.(check (float 1e-9)) "bin1 kbps" 2.0 k1;
      Alcotest.(check (float 1e-9)) "bin2 kbps" 2.0 k2
  | _ -> Alcotest.fail "expected two bins")

let test_meter_mean () =
  let m = Meter.create () in
  for i = 0 to 9 do
    Meter.record m ~time:(float_of_int i +. 0.5) ~bytes:1250
  done;
  (* 1250 B/s = 10 kbps over [0, 10). *)
  Alcotest.(check (float 1e-6)) "mean kbps" 10. (Meter.mean_kbps m ~lo:0. ~hi:10.)

(* Windows that do not align with bin boundaries: each bin contributes
   proportionally to its overlap with [lo, hi). *)
let test_meter_mean_partial_bins () =
  let m = Meter.create () in
  Meter.record m ~time:0.5 ~bytes:1000;  (* bin [0,1): 8 kbps *)
  Meter.record m ~time:1.5 ~bytes:2000;  (* bin [1,2): 16 kbps *)
  (* Half of each bin: (500 + 1000) B over 1 s = 12 kbps. *)
  Alcotest.(check (float 1e-9)) "straddles the boundary" 12.
    (Meter.mean_kbps m ~lo:0.5 ~hi:1.5);
  (* Entirely inside one bin: the bin's own rate, whatever the span. *)
  Alcotest.(check (float 1e-9)) "interior of bin 0" 8.
    (Meter.mean_kbps m ~lo:0.25 ~hi:0.75);
  Alcotest.(check (float 1e-9)) "quarter of each bin" 12.
    (Meter.mean_kbps m ~lo:0.75 ~hi:1.25);
  (* Past the recorded data the window averages in silence. *)
  Alcotest.(check (float 1e-9)) "trailing silence" 8.
    (Meter.mean_kbps m ~lo:1.0 ~hi:3.0);
  Alcotest.(check (float 0.)) "empty window" 0.
    (Meter.mean_kbps m ~lo:2.0 ~hi:2.0)

let test_meter_backwards () =
  let m = Meter.create () in
  Meter.record m ~time:5. ~bytes:1;
  Alcotest.check_raises "backwards"
    (Invalid_argument "Meter.record: time going backwards") (fun () ->
      Meter.record m ~time:4. ~bytes:1)

let prop_meter_total =
  QCheck.Test.make ~name:"meter total equals sum of records" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 50) (int_range 1 10_000))
    (fun sizes ->
      let m = Meter.create () in
      List.iteri
        (fun i b -> Meter.record m ~time:(float_of_int i *. 0.1) ~bytes:b)
        sizes;
      Meter.total_bytes m = List.fold_left ( + ) 0 sizes)

let suite =
  ( "series-meter",
    [
      Alcotest.test_case "series ordering" `Quick test_series_order;
      Alcotest.test_case "meter bins" `Quick test_meter_bins;
      Alcotest.test_case "meter mean" `Quick test_meter_mean;
      Alcotest.test_case "meter mean, partial bins" `Quick
        test_meter_mean_partial_bins;
      Alcotest.test_case "meter backwards" `Quick test_meter_backwards;
      QCheck_alcotest.to_alcotest prop_meter_total;
    ] )
