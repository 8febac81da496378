module Sim = Mcc_engine.Sim
module Topology = Mcc_net.Topology
module Node = Mcc_net.Node
module Prng = Mcc_util.Prng
module Spec = Mcc_core.Spec
module Defaults = Mcc_core.Defaults

type built = {
  topo : Topology.t;
  sender : Node.t;
  pool : Node.t list;
  edges : Node.t list;
}

(* Link construction mirrors Dumbbell's sizing: buffers hold two
   bandwidth-delay products of the standard path RTT at the link's own
   rate, and ECN (when enabled) marks at half the buffer.  Core links
   carry the marking threshold; access links are provisioned an order
   of magnitude above any session and never congest first. *)

let rtt_s ~delay_s =
  Defaults.path_rtt_s ~bottleneck_delay_s:delay_s
    ~access_delay_s:Defaults.access_delay_s

let core_link ~ecn topo a b ~rate_bps ~delay_s =
  let buffer = Defaults.buffer_bytes ~bottleneck_rate_bps:rate_bps ~rtt_s:(rtt_s ~delay_s) in
  let ecn_threshold_bytes = if ecn then Some (buffer / 2) else None in
  ignore
    (Topology.connect topo a b ~rate_bps ~delay_s ~buffer_bytes:buffer
       ?ecn_threshold_bytes ())

let access_link topo router host =
  let rate_bps = Defaults.access_rate_bps in
  let delay_s = Defaults.access_delay_s in
  let buffer =
    Defaults.buffer_bytes ~bottleneck_rate_bps:rate_bps ~rtt_s:(rtt_s ~delay_s)
  in
  ignore
    (Topology.connect topo router host ~rate_bps ~delay_s ~buffer_bytes:buffer
       ())

let add_host topo router =
  let host = Topology.add_node topo Node.Host in
  access_link topo router host;
  host

(* --- Dumbbell ----------------------------------------------------------- *)

let dumbbell ~ecn topo ~hosts ~core_rate_bps =
  let left = Topology.add_node topo Node.Edge_router in
  let right = Topology.add_node topo Node.Edge_router in
  core_link ~ecn topo left right ~rate_bps:core_rate_bps
    ~delay_s:Defaults.bottleneck_delay_s;
  let sender = add_host topo left in
  let pool = List.init hosts (fun _ -> add_host topo right) in
  { topo; sender; pool; edges = [ right ] }

(* --- Fat tree ----------------------------------------------------------- *)

(* Canonical k-ary fat tree: (k/2)^2 core routers, k pods of k/2
   aggregation and k/2 edge routers, k/2 hosts per edge router.
   Aggregation router i of every pod uplinks to cores
   [i*k/2 .. i*k/2 + k/2 - 1]; every edge router connects to all of its
   pod's aggregation routers.  The sender is the first host of pod 0's
   first edge router; every other host is receiver pool, in edge order. *)

let fat_tree ~ecn topo ~k ~core_rate_bps =
  if k < 2 || k mod 2 <> 0 then invalid_arg "Topo_gen.fat_tree: k must be even and >= 2";
  let half = k / 2 in
  let delay_s = Defaults.bottleneck_delay_s /. 4. in
  let cores =
    Array.init (half * half) (fun _ -> Topology.add_node topo Node.Core_router)
  in
  let all_edges = ref [] in
  for _pod = 0 to k - 1 do
    let aggs =
      Array.init half (fun _ -> Topology.add_node topo Node.Core_router)
    in
    Array.iteri
      (fun i agg ->
        for j = 0 to half - 1 do
          core_link ~ecn topo agg cores.((i * half) + j)
            ~rate_bps:core_rate_bps ~delay_s
        done)
      aggs;
    for _e = 0 to half - 1 do
      let edge = Topology.add_node topo Node.Edge_router in
      Array.iter
        (fun agg -> core_link ~ecn topo edge agg ~rate_bps:core_rate_bps ~delay_s)
        aggs;
      all_edges := edge :: !all_edges
    done
  done;
  let edges = List.rev !all_edges in
  let hosts =
    List.concat_map (fun e -> List.init half (fun _ -> add_host topo e)) edges
  in
  match hosts with
  | sender :: pool -> { topo; sender; pool; edges }
  | [] -> assert false

(* --- Star of LANs ------------------------------------------------------- *)

(* One core router, [lans] edge routers on core links, [hosts_per_lan]
   hosts behind each edge.  The sender hangs directly off the core. *)

let star_lans ~ecn topo ~lans ~hosts_per_lan ~core_rate_bps =
  if lans < 1 || hosts_per_lan < 1 then
    invalid_arg "Topo_gen.star_lans: lans and hosts_per_lan must be positive";
  let core = Topology.add_node topo Node.Core_router in
  let sender = add_host topo core in
  let edges = List.init lans (fun _ -> Topology.add_node topo Node.Edge_router) in
  List.iter
    (fun e ->
      core_link ~ecn topo core e ~rate_bps:core_rate_bps
        ~delay_s:Defaults.bottleneck_delay_s)
    edges;
  let pool =
    List.concat_map
      (fun e -> List.init hosts_per_lan (fun _ -> add_host topo e))
      edges
  in
  { topo; sender; pool; edges }

(* --- ISP-like random graph ---------------------------------------------- *)

(* A random tree over [routers] core routers (router i uplinks to a
   uniformly drawn earlier router — the classic preferential-free
   random recursive tree), plus [extra_links] shortcut links between
   distinct random pairs.  Every core router fronts one edge router
   with [hosts_per_edge] hosts; the sender is an extra host on router
   0's edge.  All randomness comes from [prng], so one seed is one
   graph. *)

let isp_random ~ecn topo ~prng ~routers ~extra_links ~hosts_per_edge
    ~core_rate_bps =
  if routers < 2 then invalid_arg "Topo_gen.isp_random: routers must be >= 2";
  if hosts_per_edge < 1 then
    invalid_arg "Topo_gen.isp_random: hosts_per_edge must be positive";
  let delay_s = Defaults.bottleneck_delay_s /. 2. in
  let cores =
    Array.init routers (fun _ -> Topology.add_node topo Node.Core_router)
  in
  for i = 1 to routers - 1 do
    let up = Prng.int prng i in
    core_link ~ecn topo cores.(i) cores.(up) ~rate_bps:core_rate_bps ~delay_s
  done;
  (* Shortcuts may collide with tree links or each other; a duplicate
     duplex link is legal (parallel paths) and Dijkstra just ignores the
     longer one, so no dedup is needed — only self-loops are skipped,
     with the pair redrawn a bounded number of times. *)
  for _ = 1 to extra_links do
    let rec draw tries =
      let a = Prng.int prng routers and b = Prng.int prng routers in
      if a <> b then Some (a, b) else if tries <= 0 then None else draw (tries - 1)
    in
    match draw 8 with
    | Some (a, b) ->
        core_link ~ecn topo cores.(a) cores.(b) ~rate_bps:core_rate_bps ~delay_s
    | None -> ()
  done;
  let edges =
    Array.to_list
      (Array.map
         (fun c ->
           let e = Topology.add_node topo Node.Edge_router in
           core_link ~ecn topo c e ~rate_bps:core_rate_bps
             ~delay_s:Defaults.access_delay_s;
           e)
         cores)
  in
  let sender = add_host topo (List.hd edges) in
  let pool =
    List.concat_map
      (fun e -> List.init hosts_per_edge (fun _ -> add_host topo e))
      edges
  in
  { topo; sender; pool; edges }

(* --- Dispatch ----------------------------------------------------------- *)

(* The product of two non-negative ints, saturating at [max_int]: a
   capacity never wraps negative. *)
let mul_sat a b = if a <> 0 && b > max_int / a then max_int else a * b

let capacity ~(spec : Spec.topology_spec) ~hosts =
  match spec with
  | Spec.Dumbbell_topo -> hosts
  | Spec.Fat_tree { k; _ } -> (mul_sat (mul_sat k k) k / 4) - 1
  | Spec.Star_lans { lans; hosts_per_lan; _ } -> mul_sat lans hosts_per_lan
  | Spec.Isp_random { routers; hosts_per_edge; _ } ->
      mul_sat routers hosts_per_edge

let build ?(ecn = false) sim ~prng ~(spec : Spec.topology_spec) ~hosts =
  let topo = Topology.create sim in
  let b =
    match spec with
    | Spec.Dumbbell_topo ->
        dumbbell ~ecn topo ~hosts ~core_rate_bps:1_000_000.
    | Spec.Fat_tree { k; core_rate_bps } -> fat_tree ~ecn topo ~k ~core_rate_bps
    | Spec.Star_lans { lans; hosts_per_lan; core_rate_bps } ->
        star_lans ~ecn topo ~lans ~hosts_per_lan ~core_rate_bps
    | Spec.Isp_random { routers; extra_links; hosts_per_edge; core_rate_bps } ->
        isp_random ~ecn topo ~prng ~routers ~extra_links ~hosts_per_edge
          ~core_rate_bps
  in
  if List.length b.pool < hosts then
    invalid_arg
      (Printf.sprintf
         "Topo_gen.build: %s provides %d receiver hosts, workload needs %d"
         (Spec.topology_str spec) (List.length b.pool) hosts);
  b
