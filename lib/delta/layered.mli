(** DELTA instantiation for cumulative layered multicast protocols that
    define congestion as a single packet loss (FLID-DL, RLC) — the
    algorithm of Figure 4 in the paper.

    Per time slot and group [g] (groups numbered 1..N):
    - top key        [lambda_g]  = XOR of the component fields of all
                                   packets of groups 1..g (Eq. 3);
    - decrease key   [delta_g]   = the nonce carried in the decrease
                                   field of every packet of group g+1
                                   (Eq. 4), defined for g = 1..N-1;
    - increase key   [iota_g]    = [lambda_(g-1)] (Eq. 5), defined for
                                   g = 2..N and only when the protocol
                                   authorizes an upgrade to g.

    The sender precomputes all keys before the slot starts (so SIGMA can
    ship them to edge routers ahead of time) and then emits components
    in real time without changing the transmission pattern. *)

type keys = {
  top : Key.t array;  (** [top.(g-1)] = lambda_g, g = 1..N *)
  decrease : Key.t array;  (** [decrease.(g-1)] = delta_g, g = 1..N-1 *)
  increase : Key.t option array;
      (** [increase.(g-1)] = iota_g for g = 2..N when an upgrade to g is
          authorized this slot; [increase.(0)] is always [None] *)
}

val valid_keys : keys -> group:int -> Key.t list
(** All keys that open [group] this slot: top, decrease (if defined) and
    increase (if authorized) — what SIGMA loads into edge routers. *)

(** {1 Sender} *)

type sender

val sender_create :
  prng:Mcc_util.Prng.t ->
  width:int ->
  groups:int ->
  upgrades:bool array ->
  sender
(** [upgrades.(g-1)] says the protocol authorizes an upgrade {e to}
    group [g] this slot ([upgrades.(0)] is ignored).
    @raise Invalid_argument if [groups < 1] or [upgrades] has the wrong
    length. *)

val sender_create_with :
  tops:(Key.t array -> Key.t array) ->
  prng:Mcc_util.Prng.t ->
  width:int ->
  groups:int ->
  upgrades:bool array ->
  sender
(** [sender_create] with the top keys [tops c] computed from [c.(g-1)],
    the XOR of all of group g's components this slot: Eq. 3's prefix
    XOR for [sender_create], Eq. 6's [c] itself for
    {!Replicated.sender_create}.  The components and decrease nonces
    are drawn from [prng] in the same order either way, and the
    increase key [iota_g] is [top.(g-2)]. *)

val sender_keys : sender -> keys
(** Available immediately after creation (precomputation property). *)

val next_component : sender -> group:int -> last:bool -> Key.t
(** Component field for the next packet of [group]; [last] marks the
    final packet of the slot, which must be requested exactly once and
    last.  @raise Invalid_argument on an out-of-range group or a
    component requested after [last]. *)

val decrease_field : sender -> group:int -> Key.t option
(** Decrease field [d_g] for packets of [group]; [None] for group 1. *)

(** {1 Receiver} *)

type receiver = private {
  xors : Key.t array;
      (** [xors.(g-1)]: XOR of the component fields received on group g *)
  dfields : Key.t option array;
      (** [dfields.(g-1)]: the decrease field last received on group g *)
}
(** Per-group accumulators, read by {!Replicated.slot_end}. *)

val receiver_create : groups:int -> receiver
(** [groups] = N, the session size. *)

val on_packet :
  receiver -> group:int -> component:Key.t -> decrease:Key.t option -> unit
(** Accumulate the fields of one received packet. *)

type outcome = {
  next_level : int;
      (** subscription level for the guarded slot; 0 means the receiver
          lost even the minimal group and must re-admit via SIGMA's
          session-join *)
  keys : (int * Key.t) list;  (** (group, reconstructed key) pairs *)
}

val slot_end :
  receiver ->
  level:int ->
  congested:bool ->
  lost:(int -> bool) ->
  upgrade_to:(int -> bool) ->
  outcome
(** Applies the receiver algorithm of Figure 4.  [level] is the current
    subscription level g; [lost j] reports whether group [j] lost at
    least one packet this slot (the protocol's loss detector);
    [upgrade_to j] reports whether the slot's packets authorized an
    upgrade to group [j].

    Uncongested: keys are the top keys for groups 1..g, plus the
    increase key for g+1 when authorized.  Congested: keys are the
    decrease keys for the longest prefix of groups 1..g-1 whose decrease
    fields were received — unless the loss is confined to group g itself
    and an upgrade to g is authorized, in which case the receiver keeps
    level g (the paper's contradiction resolution). *)
