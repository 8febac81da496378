(** Group keys and key components.

    Keys are [width]-bit integers (the paper's evaluation uses 16-bit
    keys); components are values of the same width combined with XOR.
    Guessing a component is exactly as hard as guessing the key
    (paper Section 4.2), which the width makes explicit. *)

type t = int

val default_width : int
(** 16, the width used throughout the paper's evaluation. *)

val nonce : Mcc_util.Prng.t -> width:int -> t
(** Fresh uniform [width]-bit value.  @raise Invalid_argument unless
    [0 < width <= 62]. *)

val xor : t -> t -> t

val field_bytes : width:int -> int
(** Wire size of one key-sized field, rounded up to whole bytes. *)
