open Mcc_util

(* Residues from the whole field, with 0, 1 and p - 1 drawn often:
   products and Horner steps then land on p's multiples, the edge of the
   folded reduction. *)
let elem =
  QCheck.make ~print:string_of_int
    QCheck.Gen.(
      frequency
        [ (3, int_range 0 (Gf.p - 1)); (1, oneofl [ 0; 1; Gf.p - 1 ]) ])

let prop_add_assoc =
  QCheck.Test.make ~name:"Gf add associative" ~count:300
    QCheck.(triple elem elem elem)
    (fun (a, b, c) -> Gf.add (Gf.add a b) c = Gf.add a (Gf.add b c))

let prop_mul_assoc =
  QCheck.Test.make ~name:"Gf mul associative" ~count:300
    QCheck.(triple elem elem elem)
    (fun (a, b, c) -> Gf.mul (Gf.mul a b) c = Gf.mul a (Gf.mul b c))

let prop_distrib =
  QCheck.Test.make ~name:"Gf distributivity" ~count:300
    QCheck.(triple elem elem elem)
    (fun (a, b, c) ->
      Gf.mul a (Gf.add b c) = Gf.add (Gf.mul a b) (Gf.mul a c))

let prop_inverse =
  QCheck.Test.make ~name:"Gf inverse" ~count:300 elem (fun a ->
      QCheck.assume (a <> 0);
      Gf.mul a (Gf.inv a) = 1)

let prop_sub_add =
  QCheck.Test.make ~name:"Gf sub then add roundtrips" ~count:300
    QCheck.(pair elem elem)
    (fun (a, b) -> Gf.add (Gf.sub a b) b = a)

let prop_mul_reference =
  QCheck.Test.make ~name:"Gf mul matches a * b mod p" ~count:1000
    QCheck.(pair elem elem)
    (fun (a, b) -> Gf.mul a b = a * b mod Gf.p)

(* Horner's rule with a division per step. *)
let horner_mod coeffs x =
  Array.fold_right (fun c acc -> ((acc * x) + c) mod Gf.p) coeffs 0

let prop_eval_poly_reference =
  QCheck.Test.make ~name:"Gf eval_poly matches mod Horner" ~count:1000
    QCheck.(pair (array_of_size Gen.(int_range 0 6) elem) elem)
    (fun (coeffs, x) -> Gf.eval_poly coeffs x = horner_mod coeffs x)

(* b + a X with b = -a x: the last Horner step is a nonzero multiple of
   p whenever a x is not 0 (mod p), and the value is 0. *)
let prop_eval_poly_root =
  QCheck.Test.make ~name:"Gf eval_poly vanishes at a root" ~count:300
    QCheck.(pair elem elem)
    (fun (a, x) ->
      let b = (Gf.p - (a * x mod Gf.p)) mod Gf.p in
      Gf.eval_poly [| b; a |] x = 0 && horner_mod [| b; a |] x = 0)

let test_of_int_negative () =
  Alcotest.(check int) "canonical negative" (Gf.p - 5) (Gf.of_int (-5))

let test_pow () =
  Alcotest.(check int) "x^0" 1 (Gf.pow 12345 0);
  Alcotest.(check int) "x^1" 12345 (Gf.pow 12345 1);
  Alcotest.(check int) "2^10" 1024 (Gf.pow 2 10);
  (* Fermat: x^(p-1) = 1 *)
  Alcotest.(check int) "fermat" 1 (Gf.pow 987654321 (Gf.p - 1))

let test_inv_zero () =
  Alcotest.check_raises "inv 0" Division_by_zero (fun () ->
      ignore (Gf.inv 0))

let test_eval_poly () =
  (* 3 + 2x + x^2 at x = 5 -> 3 + 10 + 25 = 38 *)
  Alcotest.(check int) "horner" 38 (Gf.eval_poly [| 3; 2; 1 |] 5)

let test_interpolate_constant () =
  (* A degree-2 polynomial through three points. q(x) = 7 + x + 2x^2. *)
  let q x = Gf.add 7 (Gf.add x (Gf.mul 2 (Gf.mul x x))) in
  let points = [ (1, q 1); (2, q 2); (3, q 3) ] in
  Alcotest.(check int) "q(0)" 7 (Gf.interpolate_at_zero points)

let test_interpolate_duplicate () =
  Alcotest.check_raises "duplicate x"
    (Invalid_argument "Gf.interpolate_at_zero: duplicate abscissae")
    (fun () -> ignore (Gf.interpolate_at_zero [ (1, 2); (1, 3) ]))

let suite =
  ( "gf",
    [
      QCheck_alcotest.to_alcotest prop_add_assoc;
      QCheck_alcotest.to_alcotest prop_mul_assoc;
      QCheck_alcotest.to_alcotest prop_distrib;
      QCheck_alcotest.to_alcotest prop_inverse;
      QCheck_alcotest.to_alcotest prop_sub_add;
      QCheck_alcotest.to_alcotest prop_mul_reference;
      QCheck_alcotest.to_alcotest prop_eval_poly_reference;
      QCheck_alcotest.to_alcotest prop_eval_poly_root;
      Alcotest.test_case "of_int negative" `Quick test_of_int_negative;
      Alcotest.test_case "pow" `Quick test_pow;
      Alcotest.test_case "inv zero" `Quick test_inv_zero;
      Alcotest.test_case "eval_poly" `Quick test_eval_poly;
      Alcotest.test_case "interpolate" `Quick test_interpolate_constant;
      Alcotest.test_case "interpolate dup" `Quick test_interpolate_duplicate;
    ] )
