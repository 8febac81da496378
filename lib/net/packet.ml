type dst = Unicast of int | Multicast of int

(* All fields are mutable so a recycled record can be re-initialised in
   place ([copy_pooled]); outside the pool the identity fields are
   treated as immutable, exactly as before. *)
type t = {
  mutable uid : int;
  mutable src : int;
  mutable dst : dst;
  mutable size : int;
  mutable ecn : bool;
  mutable router_alert : bool;
  mutable payload : Payload.t;
  mutable lineage : Mcc_obs.Lineage.t;
}

(* Domain-local so concurrent simulations (the batch runner farms runs
   out to domains) never contend on — or non-deterministically
   interleave — the counter.  Uids stay unique and reproducible within
   a domain, which is as strong a guarantee as the previous global
   counter gave a single-threaded process. *)
let next_uid = Domain.DLS.new_key (fun () -> ref 0)

let make ?(router_alert = false) ~src ~dst ~size payload =
  if size <= 0 then invalid_arg "Packet.make: size <= 0";
  let counter = Domain.DLS.get next_uid in
  incr counter;
  {
    uid = !counter;
    src;
    dst;
    size;
    ecn = false;
    router_alert;
    payload;
    lineage = Mcc_obs.Lineage.fresh ();
  }

(* A copy is a distinct causal object (one multicast branch), so it
   gets its own lineage record seeded with the parent's history. *)
let copy t = { t with lineage = Mcc_obs.Lineage.clone t.lineage }

(* Multicast fan-out allocates one copy per downstream branch, and under
   the congestion the attack figures live in, most of those copies die
   synchronously in a full link buffer.  Recycling them through a
   domain-local free list turns that steady state allocation-free.  The
   pool is bounded, so a run that never releases behaves exactly as
   before. *)
let pool = Domain.DLS.new_key (fun () -> Pool.Freelist.create ~cap:4096 ())

let[@hot] copy_pooled src =
  let fl = Domain.DLS.get pool in
  if Pool.Freelist.is_empty fl then copy src
  else begin
    let pkt = Pool.Freelist.pop fl in
    pkt.uid <- src.uid;
    pkt.src <- src.src;
    pkt.dst <- src.dst;
    pkt.size <- src.size;
    pkt.ecn <- src.ecn;
    pkt.router_alert <- src.router_alert;
    pkt.payload <- src.payload;
    pkt.lineage <- Mcc_obs.Lineage.clone src.lineage;
    pkt
  end

let[@hot] release pkt =
  (* The lineage goes back to its own pool; the packet keeps a stale
     pointer that [copy_pooled] overwrites before the record is seen
     again. *)
  Mcc_obs.Lineage.release pkt.lineage;
  Pool.Freelist.put (Domain.DLS.get pool) pkt
let pooled () = Pool.Freelist.length (Domain.DLS.get pool)
let is_multicast t = match t.dst with Multicast _ -> true | Unicast _ -> false
