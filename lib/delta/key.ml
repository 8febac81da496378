type t = int

let default_width = 16

let nonce prng ~width =
  if width <= 0 || width > 62 then invalid_arg "Key.nonce";
  Mcc_util.Prng.bits prng width

let xor = ( lxor )
let field_bytes ~width = (width + 7) / 8
