module Sim = Mcc_engine.Sim

type t = {
  sim : Sim.t;
  mutable nodes : Node.t array;  (* by id; slots from [node_count] on are filler *)
  mutable node_count : int;
  mutable links : Link.t list;
  mutable link_count : int;
  groups : (int, Node.t) Hashtbl.t;
}

let create sim =
  { sim; nodes = [||]; node_count = 0; links = []; link_count = 0; groups = Hashtbl.create 16 }

let sim t = t.sim

let add_node t kind =
  let node = Node.create ~sim:t.sim ~id:t.node_count ~kind in
  if t.node_count = Array.length t.nodes then begin
    let grown = Array.make (max 16 (2 * t.node_count)) node in
    Array.blit t.nodes 0 grown 0 t.node_count;
    t.nodes <- grown
  end;
  t.nodes.(t.node_count) <- node;
  t.node_count <- t.node_count + 1;
  node

let nodes t = List.init t.node_count (Array.get t.nodes)

let node t id =
  if id < 0 || id >= t.node_count then
    invalid_arg (Printf.sprintf "Topology.node: unknown id %d" id);
  t.nodes.(id)

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

(* --- Routes ------------------------------------------------------------- *)

(* A binary min-heap of (distance, node id) entries in two flat arrays:
   the least distance first, the lower id on a tie. *)
type heap = { dists : float array; ids : int array; mutable len : int }

let[@inline] before (d : float) (v : int) d' v' = d < d' || (d = d' && v < v')

(* Queues [v] at its current distance in [dist]. *)
let heap_push h (dist : float array) v =
  let d = dist.(v) in
  let i = ref h.len in
  h.len <- h.len + 1;
  while !i > 0 && before d v h.dists.((!i - 1) / 2) h.ids.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    h.dists.(!i) <- h.dists.(p);
    h.ids.(!i) <- h.ids.(p);
    i := p
  done;
  h.dists.(!i) <- d;
  h.ids.(!i) <- v

(* Removes the least entry and returns its node id. *)
let heap_pop h =
  let top = h.ids.(0) in
  let len = h.len - 1 in
  h.len <- len;
  if len > 0 then begin
    let d = h.dists.(len) and v = h.ids.(len) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c =
        if l + 1 < len
           && before h.dists.(l + 1) h.ids.(l + 1) h.dists.(l) h.ids.(l)
        then l + 1
        else l
      in
      if c < len && before h.dists.(c) h.ids.(c) d v then begin
        h.dists.(!i) <- h.dists.(c);
        h.ids.(!i) <- h.ids.(c);
        i := c
      end
      else sifting := false
    done;
    h.dists.(!i) <- d;
    h.ids.(!i) <- v
  end;
  top

(* Connected components, labelled by their least node id.  Links come
   in duplex pairs, so a node reaches exactly the other nodes of its
   component. *)
let components t =
  let n = t.node_count in
  let component = Array.make n (-1) and stack = Array.make n 0 in
  (* Labels the unlabelled heads of [links], stacking them from [top];
     returns the new top. *)
  let rec push root top = function
    | [] -> top
    | (l : Link.t) :: rest ->
        let v = l.Link.dst in
        if component.(v) >= 0 then push root top rest
        else begin
          component.(v) <- root;
          stack.(top) <- v;
          push root (top + 1) rest
        end
  in
  for root = 0 to n - 1 do
    if component.(root) < 0 then begin
      component.(root) <- root;
      let top = ref (push root 0 t.nodes.(root).Node.links) in
      while !top > 0 do
        let u = stack.(!top - 1) in
        top := push root (!top - 1) t.nodes.(u).Node.links
      done
    end
  done;
  component

(* Every route leaves a node with one link through that link, so only
   nodes with two or more run a Dijkstra, over propagation delay plus
   1e-9 s a hop.  Nodes settle in (distance, id) order: every
   improvement pushes the node at its new distance, and a popped entry
   of a settled node is stale and skipped.  A linear scan for the
   nearest unsettled node, lowest id first, settles them in the same
   order, so ties pick the same first hops.  One set of scratch arrays
   serves every source, and each source's first hops become its
   table. *)
let compute_routes t =
  let n = t.node_count in
  let component = components t in
  let dist = Array.make n infinity in
  let settled = Array.make n false in
  (* Each simplex link pushes at most once per source, when its tail
     settles, and the source pushes once. *)
  let cap = t.link_count + 1 in
  let heap = { dists = Array.make cap 0.; ids = Array.make cap 0; len = 0 } in
  let rec relax ~src first_hop u = function
    | [] -> ()
    | (l : Link.t) :: rest ->
        let v = l.Link.dst in
        let d = dist.(u) +. l.Link.delay_s +. 1e-9 in
        if d < dist.(v) then begin
          dist.(v) <- d;
          first_hop.(v) <- (if u = src then Some l else first_hop.(u));
          heap_push heap dist v
        end;
        relax ~src first_hop u rest
  in
  let dijkstra src =
    let first_hop = Array.make n None in
    Array.fill dist 0 n infinity;
    Array.fill settled 0 n false;
    dist.(src) <- 0.;
    heap_push heap dist src;
    while heap.len > 0 do
      let u = heap_pop heap in
      if not settled.(u) then begin
        settled.(u) <- true;
        relax ~src first_hop u t.nodes.(u).Node.links
      end
    done;
    first_hop
  in
  for src = 0 to n - 1 do
    let node = t.nodes.(src) in
    node.Node.routes <-
      (match node.Node.links with
      | [ l ] -> Node.Via { hop = Some l; component }
      | _ -> Node.Table (dijkstra src))
  done

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
