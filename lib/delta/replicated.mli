(** DELTA instantiation for replicated multicast protocols — Figure 5 of
    the paper.  Each subscription level is a single group carrying the
    same content at a different rate, so keys are per-group:

    - top key      [lambda_g] = XOR of the component fields of the
                                packets of group g alone (Eq. 6);
    - decrease key [delta_(g-1)] = nonce in the decrease field of every
                                packet of group g;
    - increase key [iota_g]  = XOR of the components of group g-1
                                (Eq. 6), when an upgrade is authorized.

    Figure 5 changes two things in Figure 4's algorithm, and this
    module holds only those: the sender's top keys (Eq. 6 in place of
    Eq. 3) and the receiver's rule, which holds one group at a time.
    The rest is {!Layered}'s: the key record and [valid_keys], the
    sender's component stream and [decrease_field], and the receiver's
    per-group accumulators ([receiver_create], [on_packet]). *)

val sender_create :
  prng:Mcc_util.Prng.t ->
  width:int ->
  groups:int ->
  upgrades:bool array ->
  Layered.sender
(** {!Layered.sender_create} with each group's own component XOR as
    its top key: the same draws from [prng] in the same order, so
    [decrease] and the component stream equal the layered sender's
    for the same seed, and [top.(g-1)] XORed over groups 1..g is the
    layered [top.(g-1)]. *)

type outcome = { next_group : int; key : Key.t option }
(** [next_group = 0] means the receiver left the session. *)

val slot_end :
  Layered.receiver ->
  group:int ->
  congested:bool ->
  upgrade_to:(int -> bool) ->
  outcome
(** Figure 5 receiver: uncongested receivers reconstruct their group's
    top key (and move up with the increase key when authorized);
    congested receivers fall back to the decrease field of their current
    group, which names the key of group g-1. *)
