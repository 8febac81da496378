module Prof = Mcc_obs.Prof
module Lineage = Mcc_obs.Lineage

type kind = Host | Edge_router | Core_router | Lan

(* Node ids and group addresses are small consecutive ints, so the key
   itself spreads across buckets, and a lookup calls no C hash or
   compare. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type t = {
  id : int;
  kind : kind;
  sim : Mcc_engine.Sim.t;
  mutable links : Link.t list;
  fib : Link.t Itbl.t;
  mcast_out : Link.t list ref Itbl.t;
  local_groups : (Packet.t -> unit) Itbl.t;
  mutable local_unicast : (Packet.t -> unit) option;
  mutable unicast_handlers : (Packet.t -> bool) list;
  mutable mcast_filter : (int -> Link.t -> bool) option;
  mutable intercept : (Packet.t -> unit) option;
  mutable on_forward : (int -> Link.t -> Packet.t -> unit) option;
  mutable promiscuous : (Packet.t -> unit) option;
  protected_groups : unit Itbl.t;
}

let create ~sim ~id ~kind =
  {
    id;
    kind;
    sim;
    links = [];
    fib = Itbl.create 16;
    mcast_out = Itbl.create 16;
    local_groups = Itbl.create 16;
    local_unicast = None;
    unicast_handlers = [];
    mcast_filter = None;
    intercept = None;
    on_forward = None;
    promiscuous = None;
    protected_groups = Itbl.create 16;
  }

let downstream t ~group =
  match Itbl.find_opt t.mcast_out group with Some l -> !l | None -> []

let add_downstream t ~group link =
  match Itbl.find_opt t.mcast_out group with
  | None ->
      Itbl.replace t.mcast_out group (ref [ link ]);
      true
  | Some l ->
      let was_empty = !l = [] in
      if not (List.memq link !l) then l := link :: !l;
      was_empty

let remove_downstream t ~group link =
  match Itbl.find_opt t.mcast_out group with
  | None -> false
  | Some l ->
      let before = !l in
      l := List.filter (fun x -> not (x == link)) before;
      before <> [] && !l = []

let subscribe_local t ~group handler = Itbl.replace t.local_groups group handler
let unsubscribe_local t ~group = Itbl.remove t.local_groups group
let set_unicast_handler t handler = t.local_unicast <- Some handler

let rec dispatch_unicast pkt = function
  | [] -> ()
  | h :: rest -> if not (h pkt) then dispatch_unicast pkt rest

(* The handler list lives on the node, so it is reachable only while the
   node is: nothing outlives the scenario that built it. *)
let add_unicast_handler t handler =
  (match t.unicast_handlers with
  | [] ->
      set_unicast_handler t (fun pkt -> dispatch_unicast pkt t.unicast_handlers)
  | _ :: _ -> ());
  t.unicast_handlers <- t.unicast_handlers @ [ handler ]

let link_to t neighbor =
  List.find_opt (fun (l : Link.t) -> l.Link.dst = neighbor) t.links

let[@hot] deliver_local t pkt =
  match pkt.Packet.dst with
  | Packet.Unicast id ->
      if id = t.id then begin
        match t.local_unicast with Some h -> h pkt | None -> ()
      end
  | Packet.Multicast g ->
      if not pkt.Packet.router_alert then begin
        match Itbl.find_opt t.local_groups g with
        | Some h -> h pkt
        | None -> ()
      end

let may_forward_on t ~group link pkt =
  let host_facing =
    match link.Link.dst_kind with
    | Link.To_host | Link.To_lan -> true
    | Link.To_router -> false
  in
  if pkt.Packet.router_alert && host_facing then false
  else
    match t.mcast_filter with
    | Some f when host_facing -> f group link
    | Some _ | None -> true

(* Branch copies come from the packet pool, and a copy that dies in a
   synchronous drop goes straight back — provided nothing could have
   kept a reference: no on_forward hook saw it. *)
let forward_multicast t ~from ~group pkt =
  let same_link l = match from with Some f -> l == f | None -> false in
  List.iter
    (fun link ->
      if (not (same_link link)) && may_forward_on t ~group link pkt then begin
        let fresh = Packet.copy_pooled pkt in
        Lineage.hop fresh.Packet.lineage ~time:(Mcc_engine.Sim.now t.sim)
          "node.fwd";
        (match t.on_forward with Some h -> h group link fresh | None -> ());
        if (not (Link.send link fresh)) && Option.is_none t.on_forward then
          Packet.release fresh
      end)
    (downstream t ~group)

let receive_body t ~from pkt =
  match t.kind with
  | Lan ->
      (* Repeat onto every attached link except the one leading back to
         the sender. *)
      let leads_back (l : Link.t) =
        match from with Some f -> l.Link.dst = f.Link.src | None -> false
      in
      List.iter
        (fun link ->
          if not (leads_back link) then begin
            let fresh = Packet.copy_pooled pkt in
            if not (Link.send link fresh) then Packet.release fresh
          end)
        t.links
  | Host ->
      (* End of the causal chain: fold the hop record into the domain's
         per-hop latency aggregates before the application sees it. *)
      Lineage.retire pkt.Packet.lineage ~time:(Mcc_engine.Sim.now t.sim);
      (match t.promiscuous with Some h -> h pkt | None -> ());
      deliver_local t pkt
  | Edge_router | Core_router -> (
      deliver_local t pkt;
      if pkt.Packet.router_alert then
        (match t.intercept with Some h -> h pkt | None -> ());
      match pkt.Packet.dst with
      | Packet.Unicast id ->
          if id <> t.id then (
            match Itbl.find_opt t.fib id with
            | Some link -> ignore (Link.send link pkt)
            | None -> ())
      | Packet.Multicast g -> forward_multicast t ~from ~group:g pkt)

let receive t ~from pkt =
  let sp = Prof.span "node" in
  receive_body t ~from pkt;
  Prof.finish sp

let originate t pkt =
  match pkt.Packet.dst with
  | Packet.Unicast id -> (
      if id = t.id then deliver_local t pkt
      else
        match Itbl.find_opt t.fib id with
        | Some link -> ignore (Link.send link pkt)
        | None -> ())
  | Packet.Multicast g ->
      deliver_local t pkt;
      forward_multicast t ~from:None ~group:g pkt
