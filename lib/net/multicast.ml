module Sim = Mcc_engine.Sim

let upstream_link topo ~(node : Node.t) ~group =
  match Topology.group_source topo group with
  | None -> None
  | Some src -> Node.route node src.Node.id

(* Post [step] (graft or prune) of [group] at [node]'s parent toward the
   source, one control delay up the upstream link; nothing at the
   source or off any route. *)
let upstream topo ~node ~group step =
  match upstream_link topo ~node ~group with
  | Some ({ Link.rev = Some rev; _ } as up) ->
      let parent = Topology.node topo up.Link.dst in
      Sim.post_after (Topology.sim topo) ~delay:(Link.control_delay up)
        (fun () -> step topo ~node:parent ~group ~down:rev)
  | Some { Link.rev = None; _ } | None -> ()

let rec graft topo ~node ~group ~down =
  if Node.add_downstream node ~group down then upstream topo ~node ~group graft

let rec prune topo ~node ~group ~down =
  let became_empty = Node.remove_downstream node ~group down in
  if became_empty && not (Node.Itbl.mem node.Node.local_groups group) then
    upstream topo ~node ~group prune

let graft_local topo ~(node : Node.t) ~group =
  let on_tree =
    Node.Itbl.mem node.Node.local_groups group
    || Node.downstream node ~group <> []
  in
  if not (Node.Itbl.mem node.Node.local_groups group) then
    Node.subscribe_local node ~group (fun _ -> ());
  if not on_tree then upstream topo ~node ~group graft

let prune_local topo ~(node : Node.t) ~group =
  if Node.Itbl.mem node.Node.local_groups group then begin
    Node.unsubscribe_local node ~group;
    if Node.downstream node ~group = [] then upstream topo ~node ~group prune
  end

let router_of topo (host : Node.t) =
  (* A host's (or LAN's) unique router neighbor, and the router's link
     back toward the host: the interface SIGMA guards.  A host wired
     through a LAN segment shares the LAN's router interface. *)
  let rec find = function
    | [] -> None
    | (l : Link.t) :: rest -> (
        match l.Link.dst_kind with
        | Link.To_router -> (
            match l.Link.rev with Some rev -> Some rev | None -> find rest)
        | Link.To_host | Link.To_lan -> find rest)
  in
  let rec resolve (node : Node.t) depth =
    if depth > 2 then (None, None)
    else
      match find node.Node.links with
      | Some rev -> (Some (Topology.node topo rev.Link.src), Some rev)
      | None -> (
          (* Look one segment further through an attached LAN. *)
          let lan =
            List.find_opt
              (fun (l : Link.t) -> l.Link.dst_kind = Link.To_lan)
              node.Node.links
          in
          match lan with
          | Some l -> resolve (Topology.node topo l.Link.dst) (depth + 1)
          | None -> (None, None))
  in
  resolve host 0

let host_join topo ~host ~group =
  match router_of topo host with
  | Some router, Some down ->
      Sim.post_after (Topology.sim topo) ~delay:(Link.control_delay down)
        (fun () ->
          if not (Node.Itbl.mem router.Node.protected_groups group) then
            graft topo ~node:router ~group ~down)
  | _, _ -> ()

(* Seconds of local leave processing at the edge router. *)
let leave_latency = 0.05

let host_leave topo ~host ~group =
  match router_of topo host with
  | Some router, Some down ->
      Sim.post_after (Topology.sim topo) ~delay:leave_latency (fun () ->
             if not (Node.Itbl.mem router.Node.protected_groups group) then
               prune topo ~node:router ~group ~down)
  | _, _ -> ()
