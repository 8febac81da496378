(** Network packets.

    A packet records its total wire size in bytes; link transmission
    time and buffer occupancy are computed from it.  Multicast
    forwarding duplicates packets per branch with [copy] so that
    per-copy mutations (the ECN mark) stay independent. *)

type dst = Unicast of int | Multicast of int

type t = {
  mutable uid : int;
      (** unique per original packet; shared by multicast copies *)
  mutable src : int;  (** originating node id *)
  mutable dst : dst;
  mutable size : int;  (** bytes on the wire *)
  mutable ecn : bool;  (** explicit congestion notification mark *)
  mutable router_alert : bool;
      (** SIGMA special packets: intercepted by edge routers, never
          forwarded onto host-facing interfaces *)
  mutable payload : Payload.t;
      (** mutable so a per-branch copy can swap in a rewritten payload
          (ECN component scrubbing) without aliasing other branches *)
  mutable lineage : Mcc_obs.Lineage.t;
      (** causal hop record; the shared sentinel (all mutators no-op)
          unless {!Mcc_obs.Lineage} collection is enabled.  [copy]/
          [copy_pooled] clone it per branch; [release] returns it to
          the lineage pool *)
}
(** All fields are mutable so pooled records can be re-initialised in
    place; outside {!copy_pooled} the identity fields (uid, src, dst,
    size, router_alert) are never written after {!make}. *)

val make : ?router_alert:bool -> src:int -> dst:dst -> size:int -> Payload.t -> t
(** Allocates a fresh uid.  @raise Invalid_argument if [size <= 0]. *)

val copy : t -> t
(** Same uid and fields; independent mutable state. *)

val copy_pooled : t -> t
(** {!copy} drawing the record from this domain's free list when one is
    available.  Semantically identical to [copy]; exists so the
    multicast fan-out can recycle branch copies (see {!release}). *)

val release : t -> unit
(** Returns a packet to this domain's free list for reuse by
    {!copy_pooled}.  The caller asserts no live references remain — the
    forwarding path only releases copies it allocated itself that died
    in a synchronous drop no forwarding hook saw.  The list is bounded
    (further releases are dropped on the floor), so never releasing is
    merely the pre-pool allocation behaviour. *)

val pooled : unit -> int
(** Number of packets currently parked in this domain's free list
    (observability / tests). *)

val is_multicast : t -> bool
