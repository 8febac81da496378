module Sim = Mcc_engine.Sim
module Node = Mcc_net.Node
module Packet = Mcc_net.Packet
module Topology = Mcc_net.Topology
module Multicast = Mcc_net.Multicast
module Key = Mcc_delta.Key

type pending = {
  slot : int;
  mutable pairs : (int * Key.t) list;
  mutable tries : int;
  mutable timer : Sim.handle option;
}

type t = {
  topo : Topology.t;
  host : Node.t;
  router : Node.t;
  width : int;
  acked : (int, (int * Key.t, unit) Hashtbl.t) Hashtbl.t;  (* per slot *)
  pendings : (int, pending) Hashtbl.t;  (* per slot *)
  mutable sent : int;
}

let router t = t.router

let acked_tbl t slot =
  match Hashtbl.find_opt t.acked slot with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace t.acked slot tbl;
      (* Old slots never come back; cap growth. *)
      if Hashtbl.length t.acked > 64 then begin
        let oldest =
          Hashtbl.fold (fun s _ acc -> min s acc) t.acked max_int
        in
        Hashtbl.remove t.acked oldest
      end;
      tbl

let acked_pairs t ~slot =
  match Hashtbl.find_opt t.acked slot with
  | None -> []
  | Some tbl -> Hashtbl.fold (fun pair () acc -> pair :: acc) tbl []

let note_ack t ~slot ~pairs =
  let tbl = acked_tbl t slot in
  List.iter (fun pair -> Hashtbl.replace tbl pair ()) pairs;
  match Hashtbl.find_opt t.pendings slot with
  | None -> ()
  | Some pending ->
      pending.pairs <-
        List.filter (fun pair -> not (Hashtbl.mem tbl pair)) pending.pairs;
      if pending.pairs = [] then begin
        (match pending.timer with Some h -> Sim.cancel h | None -> ());
        Hashtbl.remove t.pendings slot
      end

let send_control t payload ~size =
  t.sent <- t.sent + 1;
  let pkt =
    Packet.make ~src:t.host.Node.id ~dst:(Packet.Unicast t.router.Node.id)
      ~size payload
  in
  (* Control packets originate at the receiver: session = the sending
     host, level 0 — distinguishable from data lineages, whose session
     is the FLID session id and level >= 1. *)
  Mcc_obs.Lineage.set_origin pkt.Packet.lineage ~session:t.host.Node.id
    ~level:0
    ~time:(Sim.now (Topology.sim t.topo));
  Node.originate t.host pkt

(* An unacknowledged subscription is resent every 80 ms, at most five
   times. *)
let retransmit_timeout = 0.08
let max_retransmits = 5

let rec transmit_pending t pending =
  if pending.pairs <> [] && pending.tries <= max_retransmits then begin
    pending.tries <- pending.tries + 1;
    send_control t
      (Messages.Subscribe
         { receiver = t.host.Node.id; slot = pending.slot; pairs = pending.pairs })
      ~size:(Messages.subscribe_bytes ~width:t.width pending.pairs);
    pending.timer <-
      Some
        (Sim.schedule_after (Topology.sim t.topo) ~delay:retransmit_timeout
           (fun () -> transmit_pending t pending))
  end
  else Hashtbl.remove t.pendings pending.slot

let subscribe t ~slot ~pairs =
  let tbl = acked_tbl t slot in
  let fresh = List.filter (fun pair -> not (Hashtbl.mem tbl pair)) pairs in
  if fresh <> [] then begin
    match Hashtbl.find_opt t.pendings slot with
    | Some pending ->
        pending.pairs <-
          pending.pairs
          @ List.filter (fun p -> not (List.mem p pending.pairs)) fresh
    | None ->
        let pending = { slot; pairs = fresh; tries = 0; timer = None } in
        Hashtbl.replace t.pendings slot pending;
        transmit_pending t pending
  end

let session_join t ~group =
  send_control t
    (Messages.Session_join { receiver = t.host.Node.id; group })
    ~size:Messages.session_join_bytes

let unsubscribe t ~groups =
  send_control t
    (Messages.Unsubscribe { receiver = t.host.Node.id; groups })
    ~size:(Messages.unsubscribe_bytes groups)

let messages_sent t = t.sent

let create ?(width = Key.default_width) topo ~host =
  let router =
    match Multicast.router_of topo host with
    | Some r, _ -> r
    | None, _ -> invalid_arg "Client.create: host has no edge router"
  in
  let t =
    {
      topo;
      host;
      router;
      width;
      acked = Hashtbl.create 16;
      pendings = Hashtbl.create 8;
      sent = 0;
    }
  in
  (* Snoop every ack crossing this interface, whether addressed to this
     receiver or a neighbor on the same LAN: both feed suppression. *)
  let snoop pkt =
    match pkt.Packet.payload with
    | Messages.Sub_ack { slot; pairs; _ } -> note_ack t ~slot ~pairs
    | _ -> ()
  in
  let previous = t.host.Node.promiscuous in
  t.host.Node.promiscuous <-
    Some
      (fun pkt ->
        (match previous with Some f -> f pkt | None -> ());
        snoop pkt);
  t
