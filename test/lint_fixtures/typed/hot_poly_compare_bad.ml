(* Fixture: [@hot] comparisons the compiler leaves generic. *)
let[@hot] poly_less a b = a < b
let[@hot] option_equal (x : int option) y = x = y
let[@hot] int_min (x : int) y = min x y
let[@hot] pair_order (p : int * int) q = compare p q
let[@hot] justified a b =
  (* lint: allow hot-poly-compare — fixture: the suppressed twin *)
  a >= b
