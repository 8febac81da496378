module Prof = Mcc_obs.Prof
module Lineage = Mcc_obs.Lineage

type kind = Host | Edge_router | Core_router | Lan

(* The stdlib's chained buckets, specialised to int keys: node ids and
   group addresses are small consecutive ints, so the key masked to the
   bucket count is the index, and a lookup compares keys with an inline
   [Int.equal].  No hash or equality function is called per lookup, C
   or OCaml.  A bucket keeps its newest binding first, and a resize
   keeps each bucket's order, as the stdlib does. *)
module Itbl = struct
  type 'a bucket =
    | Empty
    | Cons of { key : int; mutable data : 'a; mutable next : 'a bucket }

  type 'a t = { mutable size : int; mutable data : 'a bucket array }

  let rec power_2_above x n =
    if x >= n || x * 2 > Sys.max_array_length then x
    else power_2_above (x * 2) n

  let create n =
    { size = 0; data = Array.make (power_2_above 16 n) Empty }

  let clear t =
    if t.size > 0 then begin
      t.size <- 0;
      Array.fill t.data 0 (Array.length t.data) Empty
    end

  let[@inline] index t key = key land (Array.length t.data - 1)

  let rec find_in key = function
    | Empty -> None
    | Cons c -> if Int.equal c.key key then Some c.data else find_in key c.next

  let find_opt t key = find_in key t.data.(index t key)

  let rec find_exn key = function
    | Empty -> raise Not_found
    | Cons c -> if Int.equal c.key key then c.data else find_exn key c.next

  let find t key = find_exn key t.data.(index t key)

  let rec mem_in key = function
    | Empty -> false
    | Cons c -> Int.equal c.key key || mem_in key c.next

  let mem t key = mem_in key t.data.(index t key)

  (* Doubles the bucket array, relinking the cells in place. *)
  let resize t =
    let odata = t.data in
    let nsize = Array.length odata * 2 in
    if nsize < Sys.max_array_length then begin
      let ndata = Array.make nsize Empty in
      let tails = Array.make nsize Empty in
      t.data <- ndata;
      let rec relink = function
        | Empty -> ()
        | Cons c as cell ->
            let next = c.next in
            let i = c.key land (nsize - 1) in
            (match tails.(i) with
            | Empty -> ndata.(i) <- cell
            | Cons tail -> tail.next <- cell);
            tails.(i) <- cell;
            relink next
      in
      Array.iter relink odata;
      Array.iter (function Empty -> () | Cons c -> c.next <- Empty) tails
    end

  let rec replace_in key data = function
    | Empty -> true
    | Cons c ->
        if Int.equal c.key key then begin
          c.data <- data;
          false
        end
        else replace_in key data c.next

  let replace t key data =
    let i = index t key in
    let l = t.data.(i) in
    if replace_in key data l then begin
      t.data.(i) <- Cons { key; data; next = l };
      t.size <- t.size + 1;
      if t.size > Array.length t.data lsl 1 then resize t
    end

  let rec remove_in t i key prec = function
    | Empty -> ()
    | Cons c as cell ->
        if Int.equal c.key key then begin
          t.size <- t.size - 1;
          match prec with
          | Empty -> t.data.(i) <- c.next
          | Cons p -> p.next <- c.next
        end
        else remove_in t i key cell c.next

  let remove t key =
    let i = index t key in
    remove_in t i key Empty t.data.(i)

  let iter f t =
    let rec go = function
      | Empty -> ()
      | Cons c ->
          f c.key c.data;
          go c.next
    in
    Array.iter go t.data

  let fold f t init =
    let rec go acc = function
      | Empty -> acc
      | Cons c -> go (f c.key c.data acc) c.next
    in
    Array.fold_left go init t.data
end

type routes =
  | Table of Link.t option array
  | Via of { hop : Link.t option; component : int array }

type t = {
  id : int;
  kind : kind;
  sim : Mcc_engine.Sim.t;
  mutable links : Link.t list;
  mutable routes : routes;
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
    routes = Table [||];
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

let route t v =
  match t.routes with
  | Table hops -> if v < 0 || v >= Array.length hops then None else hops.(v)
  | Via { hop; component } ->
      if v < 0 || v >= Array.length component || v = t.id
         || component.(v) <> component.(t.id)
      then None
      else hop

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
            match route t id with
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
        match route t id with
        | Some link -> ignore (Link.send link pkt)
        | None -> ())
  | Packet.Multicast g ->
      deliver_local t pkt;
      forward_multicast t ~from:None ~group:g pkt
