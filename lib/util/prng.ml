type t = { mutable state : int64 }

let gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }

let int64 t =
  t.state <- Int64.add t.state gamma;
  mix t.state

let split t = { state = int64 t }
let copy t = { state = t.state }

let bits t b =
  if b <= 0 || b > 62 then invalid_arg "Prng.bits";
  Int64.to_int (Int64.shift_right_logical (int64 t) (64 - b))

(* Bit length of [n >= 0] by halving the probe [s] (32, 16, ..., 1):
   six steps for any int. *)
let rec bit_length n len s =
  if s = 0 then len + n
  else if n lsr s <> 0 then bit_length (n lsr s) (len + s) (s lsr 1)
  else bit_length n len (s lsr 1)

let rec draw t w bound =
  let v = bits t w in
  if v < bound then v else draw t w bound

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int";
  (* Rejection sampling over the smallest covering power of two (at
     least 2^1) keeps the distribution exactly uniform. *)
  draw t (Stdlib.max 1 (bit_length (bound - 1) 0 32)) bound

let float t =
  (* 53 random bits scaled to [0, 1). *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int v *. 0x1p-53

let exponential t ~mean =
  let u = 1.0 -. float t in
  -.mean *. log u
