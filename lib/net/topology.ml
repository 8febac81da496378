module Sim = Mcc_engine.Sim

type t = {
  sim : Sim.t;
  mutable nodes : Node.t list;  (* reverse insertion order *)
  mutable node_count : int;
  mutable links : Link.t list;
  mutable link_count : int;
  groups : (int, Node.t) Hashtbl.t;
}

let create sim =
  { sim; nodes = []; node_count = 0; links = []; link_count = 0; groups = Hashtbl.create 16 }

let sim t = t.sim

let add_node t kind =
  let node = Node.create ~sim:t.sim ~id:t.node_count ~kind in
  t.node_count <- t.node_count + 1;
  t.nodes <- node :: t.nodes;
  node

let nodes t = List.rev t.nodes

let node t id =
  match List.find_opt (fun (n : Node.t) -> n.Node.id = id) t.nodes with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Topology.node: unknown id %d" id)

let dst_kind_of (n : Node.t) =
  match n.Node.kind with
  | Node.Host -> Link.To_host
  | Node.Lan -> Link.To_lan
  | Node.Edge_router | Node.Core_router -> Link.To_router

let connect t a b ~rate_bps ~delay_s ~buffer_bytes ?buffer_packets
    ?ecn_threshold_bytes () =
  let make ~src ~dst =
    let id = t.link_count in
    t.link_count <- t.link_count + 1;
    let link =
      Link.create ~sim:t.sim ~id ~src:src.Node.id ~dst:dst.Node.id
        ~dst_kind:(dst_kind_of dst) ~rate_bps ~delay_s ~buffer_bytes
        ?buffer_packets ?ecn_threshold_bytes ()
    in
    link.Link.deliver <- (fun pkt -> Node.receive dst ~from:(Some link) pkt);
    t.links <- link :: t.links;
    link
  in
  let ab = make ~src:a ~dst:b in
  let ba = make ~src:b ~dst:a in
  ab.Link.rev <- Some ba;
  ba.Link.rev <- Some ab;
  a.Node.links <- ab :: a.Node.links;
  b.Node.links <- ba :: b.Node.links;
  (ab, ba)

let compute_routes t =
  let all = nodes t in
  let n = t.node_count in
  List.iter
    (fun (src : Node.t) ->
      (* Dijkstra from [src] over propagation delay. *)
      let dist = Array.make n infinity in
      let first_hop : Link.t option array = Array.make n None in
      let visited = Array.make n false in
      dist.(src.Node.id) <- 0.;
      let rec loop () =
        (* Linear-scan extraction is fine at simulation topology sizes. *)
        let best = ref (-1) in
        for i = 0 to n - 1 do
          if (not visited.(i)) && dist.(i) < infinity
             && (!best = -1 || dist.(i) < dist.(!best))
          then best := i
        done;
        if !best >= 0 then begin
          let u = !best in
          visited.(u) <- true;
          let node_u = node t u in
          List.iter
            (fun (l : Link.t) ->
              let v = l.Link.dst in
              let d = dist.(u) +. l.Link.delay_s +. 1e-9 in
              if d < dist.(v) then begin
                dist.(v) <- d;
                first_hop.(v) <- (if u = src.Node.id then Some l else first_hop.(u))
              end)
            node_u.Node.links;
          loop ()
        end
      in
      loop ();
      Node.Itbl.reset src.Node.fib;
      for v = 0 to n - 1 do
        if v <> src.Node.id then
          match first_hop.(v) with
          | Some l -> Node.Itbl.replace src.Node.fib v l
          | None -> ()
      done)
    all

let register_group t ~group ~source = Hashtbl.replace t.groups group source
let group_source t group = Hashtbl.find_opt t.groups group
let links t = List.rev t.links

let kind_str = function
  | Node.Host -> "host"
  | Node.Edge_router -> "edge"
  | Node.Core_router -> "core"
  | Node.Lan -> "lan"

(* A canonical plain-text rendering of the graph: nodes in id order,
   simplex links in creation order, groups in address order.  Two
   topologies built by the same deterministic steps render to the same
   bytes, which is what the generator-determinism tests compare. *)
let dump t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (n : Node.t) ->
      Buffer.add_string buf
        (Printf.sprintf "node %d %s\n" n.Node.id (kind_str n.Node.kind)))
    (nodes t);
  List.iter
    (fun (l : Link.t) ->
      Buffer.add_string buf
        (Printf.sprintf "link %d %d->%d rate=%g delay=%g buffer=%d\n"
           l.Link.id l.Link.src l.Link.dst l.Link.rate_bps l.Link.delay_s
           l.Link.buffer_bytes))
    (links t);
  let groups =
    List.sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (Hashtbl.fold
         (fun g (src : Node.t) acc -> (g, src.Node.id) :: acc)
         t.groups [])
  in
  List.iter
    (fun (g, src) ->
      Buffer.add_string buf (Printf.sprintf "group %#x source=%d\n" g src))
    groups;
  Buffer.contents buf
