module Overhead = Mcc_delta.Overhead

(* The paper's Section 5.4 configuration: R = 4 Mbps, r = 100 Kbps,
   s = 4000 bits, b = 16, l = 8, z covers 50% loss. *)
let params ?(groups = 10) ?(slot = 0.25) ?(fec = 2.) () =
  let r = 100_000. and cumulative = 4_000_000. in
  let factor = (cumulative /. r) ** (1. /. float_of_int (groups - 1)) in
  {
    Overhead.groups;
    min_rate_bps = r;
    rate_factor = factor;
    slot;
    data_bits = 4000;
    key_bits = 16;
    slot_number_bits = 8;
    fec_expansion = fec;
    header_bits = 2000;
    upgrade_freq = Array.make (groups - 1) 0.25;
  }

let test_cumulative_rate () =
  let p = params () in
  Alcotest.(check bool) "R = 4 Mbps" true
    (abs_float (Overhead.cumulative_rate p -. 4_000_000.) < 1.)

let test_packets_per_slot () =
  let p = params () in
  (* 4 Mbps * 0.25 s / 4000 bits = 250 packets. *)
  Alcotest.(check bool) "P = 250" true
    (abs_float (Overhead.packets_per_slot p -. 250.) < 0.01)

let test_delta_formula () =
  let p = params () in
  (* (2 - 1/40) * 16/4000 = 0.0079 : the paper's ~0.8%. *)
  Alcotest.(check bool) "delta ~0.79%" true
    (abs_float (Overhead.delta_overhead p -. 0.0079) < 1e-4)

let test_delta_single_group () =
  let p = { (params ()) with Overhead.groups = 1; rate_factor = 1.5 } in
  (* N = 1: no decrease fields at all, so exactly b/s. *)
  Alcotest.(check (float 1e-9)) "b/s" (16. /. 4000.) (Overhead.delta_overhead p)

let test_sigma_under_paper_bound () =
  let p = params () in
  let o = Overhead.sigma_overhead p in
  Alcotest.(check bool) "under 0.6%" true (o < 0.006);
  Alcotest.(check bool) "positive" true (o > 0.)

let test_sigma_monotone_in_groups () =
  let a = Overhead.sigma_overhead (params ~groups:5 ()) in
  let b = Overhead.sigma_overhead (params ~groups:20 ()) in
  Alcotest.(check bool) "more groups, more overhead" true (b > a)

let test_sigma_decreasing_in_slot () =
  let a = Overhead.sigma_overhead (params ~slot:0.2 ()) in
  let b = Overhead.sigma_overhead (params ~slot:1.0 ()) in
  Alcotest.(check bool) "longer slots amortize" true (b < a)

let test_sigma_freq_length_check () =
  let p = { (params ()) with Overhead.upgrade_freq = [| 1. |] } in
  Alcotest.(check bool) "length mismatch" true
    (try
       ignore (Overhead.sigma_overhead p);
       false
     with Invalid_argument _ -> true)

let suite =
  ( "overhead",
    [
      Alcotest.test_case "cumulative rate" `Quick test_cumulative_rate;
      Alcotest.test_case "packets per slot" `Quick test_packets_per_slot;
      Alcotest.test_case "delta formula" `Quick test_delta_formula;
      Alcotest.test_case "delta single group" `Quick test_delta_single_group;
      Alcotest.test_case "sigma under bound" `Quick test_sigma_under_paper_bound;
      Alcotest.test_case "sigma monotone in N" `Quick
        test_sigma_monotone_in_groups;
      Alcotest.test_case "sigma amortized by slot" `Quick
        test_sigma_decreasing_in_slot;
      Alcotest.test_case "freq length check" `Quick test_sigma_freq_length_check;
    ] )
