(** Arithmetic in the prime field GF(p) with p = 2^31 - 1 (Mersenne).

    Used by the Shamir threshold instantiation of DELTA (paper Section
    3.1.2, Equations 7-9).  Products of two field elements fit in OCaml's
    63-bit native integers, so all operations are allocation-free.
    [mul] and [eval_poly] reduce by folding: 2^31 = 1 (mod p), so a
    product folds its high 31 bits onto its low ones and one
    conditional subtract yields the canonical residue, the same value
    [a * b mod p] gives. *)

val p : int
(** The field modulus, [2147483647]. *)

val of_int : int -> int
(** Canonical representative in [0, p) of an arbitrary integer. *)

val add : int -> int -> int
val sub : int -> int -> int
val mul : int -> int -> int
(** [mul a b] is [a * b mod p] for canonical [a] and [b]. *)

val pow : int -> int -> int
(** [pow x n] is x^n mod p, n >= 0. *)

val inv : int -> int
(** Multiplicative inverse. @raise Division_by_zero on 0. *)

val eval_poly : int array -> int -> int
(** [eval_poly coeffs x] evaluates [coeffs.(0) + coeffs.(1) x + ...]
    by Horner's rule, for canonical coefficients and [0 <= x < p].  Each
    step reduces [acc * x + c] once; it is at most [(p - 1) * p], so the
    fold is exact. *)

val interpolate_at_zero : (int * int) list -> int
(** Lagrange interpolation: given distinct points [(x_i, y_i)] of a
    polynomial, returns its value at 0.
    @raise Invalid_argument on duplicate abscissae. *)
