(** Communication overhead of DELTA and SIGMA — the closed-form
    analysis of paper Section 5.4 (reproduced by Figure 9).  A
    simulation measures the same two ratios from the sender's counts
    ([Experiments.run_overhead]). *)

type params = {
  groups : int;  (** N *)
  min_rate_bps : float;  (** r, transmission rate of group 1 *)
  rate_factor : float;  (** m, multiplicative cumulative-rate growth *)
  slot : float;  (** t, time slot duration in seconds *)
  data_bits : int;  (** s, data bits per packet *)
  key_bits : int;  (** b *)
  slot_number_bits : int;  (** l *)
  fec_expansion : float;  (** z, FEC bit expansion factor *)
  header_bits : int;  (** h, total special-packet header bits per slot *)
  upgrade_freq : float array;
      (** f_g for g = 2..N at index g-2: average upgrade authorizations
          per slot *)
}

val cumulative_rate : params -> float
(** R = r * m^(N-1) (Eq. 10). *)

val packets_per_slot : params -> float
(** P = R * t / s (Eq. 11). *)

val delta_overhead : params -> float
(** O_Delta = (2 - 1/m^(N-1)) * b / s: the ratio of DELTA field bits
    (one component per packet, one decrease field on groups 2..N) to
    data bits. *)

val sigma_overhead : params -> float
(** O_Sigma = ((l + 32 N + b (2N - 1 + sum f_g)) z + h) / (R t): the
    ratio of special-packet bits to data bits. *)
