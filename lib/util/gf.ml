let p = 2147483647 (* 2^31 - 1 *)

let of_int x =
  let r = x mod p in
  if r < 0 then r + p else r

let add a b =
  let s = a + b in
  if s >= p then s - p else s

let sub a b = if a >= b then a - b else a - b + p

(* 2^31 = 1 (mod p), so a = hi * 2^31 + lo is congruent to lo + hi.
   Below 2^62 - 1 both halves cannot be 2^31 - 1 at once, so the fold is
   below 2p and one conditional subtract of p finishes.  A product of
   two residues, even plus a third, is at most (p - 1) * p < 2^62 - 1. *)
let[@hot] [@inline] fold a = (a land p) + (a lsr 31)

(* The subtract is branch-free (t asr 62 is -1 when t < 0, else 0): a
   folded product of two residues lands on either side of p about
   equally often, so a branch would mispredict half the time.  Inlined,
   as [a * b mod p] was: interpolation calls it twice per inner step. *)
let[@hot] [@inline] mul a b =
  let t = fold (a * b) - p in
  t + ((t asr 62) land p)

let rec pow x n =
  if n = 0 then 1
  else
    let h = pow x (n / 2) in
    let h2 = mul h h in
    if n land 1 = 1 then mul h2 x else h2

let inv x = if x = 0 then raise Division_by_zero else pow x (p - 2)

(* One reduction per Horner step.  Shares are evaluated at packet
   indices, and for such small x the folded sum almost never reaches p:
   the branch predicts, and the chain carried from step to step stays
   short. *)
let[@hot] rec horner coeffs x acc i =
  if i < 0 then acc
  else
    let s = fold ((acc * x) + coeffs.(i)) in
    horner coeffs x (if s >= p then s - p else s) (i - 1)

let[@hot] eval_poly coeffs x = horner coeffs x 0 (Array.length coeffs - 1)

let interpolate_at_zero points =
  let xs = List.map fst points in
  let rec dup = function
    | [] -> false
    | x :: rest -> List.mem x rest || dup rest
  in
  if dup xs then invalid_arg "Gf.interpolate_at_zero: duplicate abscissae";
  let term (xi, yi) =
    let num, den =
      List.fold_left
        (fun (num, den) (xj, _) ->
          if xj = xi then (num, den)
          else (mul num (sub 0 xj), mul den (sub xi xj)))
        (1, 1) points
    in
    mul yi (mul num (inv den))
  in
  List.fold_left (fun acc pt -> add acc (term pt)) 0 points
