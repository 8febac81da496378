type params = {
  groups : int;
  min_rate_bps : float;
  rate_factor : float;
  slot : float;
  data_bits : int;
  key_bits : int;
  slot_number_bits : int;
  fec_expansion : float;
  header_bits : int;
  upgrade_freq : float array;
}

let cumulative_rate p =
  p.min_rate_bps *. (p.rate_factor ** float_of_int (p.groups - 1))

let packets_per_slot p = cumulative_rate p *. p.slot /. float_of_int p.data_bits

let delta_overhead p =
  let m_pow = p.rate_factor ** float_of_int (p.groups - 1) in
  (2. -. (1. /. m_pow)) *. float_of_int p.key_bits /. float_of_int p.data_bits

let sigma_overhead p =
  if Array.length p.upgrade_freq <> max 0 (p.groups - 1) then
    invalid_arg "Overhead.sigma_overhead: upgrade_freq length";
  let n = float_of_int p.groups in
  let b = float_of_int p.key_bits in
  let sum_f = Array.fold_left ( +. ) 0. p.upgrade_freq in
  let tuple_bits =
    float_of_int p.slot_number_bits
    +. (32. *. n)
    +. (b *. ((2. *. n) -. 1. +. sum_f))
  in
  ((tuple_bits *. p.fec_expansion) +. float_of_int p.header_bits)
  /. (cumulative_rate p *. p.slot)
