(** DELTA instantiation for threshold-based protocols (RLM, MLDA,
    WEBRC): a receiver is congested only when its loss rate exceeds a
    per-level threshold, so the key for subscription level g is split
    with Shamir's (k, n) scheme among all n packets transmitted to that
    level (paper Section 3.1.2, Eqs. 7-9).

    In cumulative layered sessions the levels share groups, and Shamir
    components cannot be reused across levels: each packet of group j
    carries one share for every level j..N, which is the "high
    communication overhead" the paper points out (we expose it in
    [share_bytes_per_packet] and benchmark it against the XOR scheme). *)

type sender

val sender_create :
  prng:Mcc_util.Prng.t ->
  levels:int ->
  per_group_counts:int array ->
  loss_thresholds:float array ->
  sender
(** [per_group_counts.(j-1)] is the number of packets group [j] will
    carry this slot; [loss_thresholds.(g-1)] in [0, 1) is the loss rate
    level [g] tolerates.  Level g's scheme has
    [n_g = sum of counts of groups 1..g] and
    [k_g = max 1 (ceil ((1 - threshold_g) * n_g))].
    @raise Invalid_argument on empty groups or thresholds out of range. *)

val level_key : sender -> level:int -> Key.t
(** The (precomputed) key guarding [level] — a GF(2^31 - 1) element. *)

val level_quorum : sender -> level:int -> int
(** k_g: shares needed to reconstruct level g's key. *)

val shares_for_packet :
  sender -> group:int -> packet_index:int -> (int * Mcc_util.Shamir.share) list
(** Shares carried by packet number [packet_index] (1-based within the
    whole slot's numbering of groups 1..N in order): one [(level,
    share)] pair for every level >= the packet's group, each one
    [Gf.eval_poly] of degree k_g - 1.  A pure function of the sender,
    whose polynomials are drawn at [sender_create]: a caller may
    evaluate it late, or never for a packet no receiver takes, and gets
    the same shares (the RLM-like sender defers it to delivery). *)

val share_bytes_per_packet : sender -> group:int -> int
(** Wire overhead of the share block for a packet of [group], counting
    4 bytes per share (31-bit y plus the abscissa folded in the packet
    header). *)

type receiver

val receiver_create : levels:int -> receiver

val on_shares : receiver -> (int * Mcc_util.Shamir.share) list -> unit

val reconstruct : receiver -> level:int -> quorum:int -> Key.t option
(** The level key if at least [quorum] distinct shares arrived.
    Interpolation runs over every received share, so the result is the
    true key whenever the shares received reach the {e sender's} quorum,
    even if the caller's [quorum] estimate was lower. *)

val shares_received : receiver -> level:int -> int
