module Sim = Mcc_engine.Sim
module Node = Mcc_net.Node
module Packet = Mcc_net.Packet
module Payload = Mcc_net.Payload
module Topology = Mcc_net.Topology
module Multicast = Mcc_net.Multicast
module Meter = Mcc_util.Meter
module Series = Mcc_util.Series
module Client = Mcc_sigma.Client
module Metrics = Mcc_obs.Metrics
module Tracer = Mcc_obs.Tracer
module Timeseries = Mcc_obs.Timeseries
module Json = Mcc_obs.Json

let mask_bit mask g = mask land (1 lsl (g - 1)) <> 0

(* ----------------------------------------------------------------- *)
(* Sender                                                            *)
(* ----------------------------------------------------------------- *)

let upgrade_mask ~groups ~upgrade_period slot =
  let mask = ref 0 in
  for g = 2 to groups do
    if (slot + g) mod upgrade_period g = 0 then
      mask := !mask lor (1 lsl (g - 1))
  done;
  !mask

(* One tick per slot: the upgrade mask, the credit-paced packet counts,
   the protocol's key state for the slot (whose SIGMA distribution must
   precede the data posts), then every data packet of the slot, group by
   group, as one train per group: the train takes its packets' event
   keys here but queues only the next packet.  Counts are decided up
   front, which is what lets Shamir polynomials be sized exactly. *)
let sender_start ?(at = 0.) ?span topo ~node ~base_group ~rates ~packet_size
    ~repair_fraction ~slot_duration ~upgrade_period ~prepare ~emit () =
  let n = Array.length rates in
  for g = 1 to n do
    Topology.register_group topo ~group:(base_group + g - 1) ~source:node
  done;
  let sim = Topology.sim topo in
  let quanta =
    Array.map
      (fun rate -> rate *. slot_duration /. float_of_int (packet_size * 8))
      rates
  in
  let credits = Array.make n 0. in
  let next_slot = ref 0 in
  let tick () =
    let tick_now = Sim.now sim in
    let slot = !next_slot in
    next_slot := slot + 1;
    let mask = upgrade_mask ~groups:n ~upgrade_period slot in
    let originals =
      Array.init n (fun i ->
          credits.(i) <- credits.(i) +. quanta.(i);
          let count = max 1 (int_of_float credits.(i)) in
          credits.(i) <- credits.(i) -. float_of_int count;
          count)
    in
    (* Reliability extension: repair packets join the slot and carry key
       shares exactly like originals (paper Section 3.1.2). *)
    let counts =
      Array.map
        (fun c -> c + int_of_float (ceil (repair_fraction *. float_of_int c)))
        originals
    in
    let st = prepare ~slot ~mask ~counts in
    for g = 1 to n do
      let count = counts.(g - 1) in
      let spacing = slot_duration /. float_of_int count in
      (* De-phase groups so slot starts are not synchronized bursts. *)
      let phase = float_of_int g /. float_of_int (n + 1) *. spacing in
      let repairs_from = originals.(g - 1) in
      (* Packet i goes at (tick_now +. phase) +. (float_of_int i *. spacing). *)
      Sim.post_train sim ~count ~at:(tick_now +. phase) ~spacing (fun i ->
          emit st ~group:g ~slot ~seq:i ~last:(i = count - 1)
            ~repair:(i >= repairs_from) ~mask)
    done
  in
  let tick =
    match span with
    | None -> tick
    | Some name ->
        fun () ->
          let prof = Mcc_obs.Prof.span name in
          tick ();
          Mcc_obs.Prof.finish prof
  in
  ignore (Sim.every sim ~start:at ~period:slot_duration tick)

(* ----------------------------------------------------------------- *)
(* Receiver                                                          *)
(* ----------------------------------------------------------------- *)

type lane = { mutable count : int; mutable marked : int; mutable last : int }
type 'k slot = { lanes : lane array; keys : 'k option; mutable mask : int }

type names = {
  prefix : string;
  component : string;
  event : string;
  field : string;
  changes : string;
}

type ('k, 's) t = {
  proto : ('k, 's) proto;
  state : 's;
  topo : Topology.t;
  host : Node.t;
  client : Client.t option;
  meter : Meter.t;
  series : Series.t;
  mutable level : int;
  active_since : int array;
  highest : int array;
  slots : (int, 'k slot) Hashtbl.t;
  mutable base : float;
  mutable synced : bool;
  mutable next_eval : int;
  mutable stopped : bool;
}

and ('k, 's) proto = {
  names : names;
  session : int;
  base_group : int;
  groups : int;
  lane_count : int;
  slot_duration : float;
  key_width : int;
  new_keys : (unit -> 'k) option;
  feed : 'k -> Payload.t -> unit;
  lane_of : level:int -> group:int -> int;
  law : ('k, 's) t -> int -> 'k slot -> unit;
  attrs : 's -> (string * Json.t) list;
}

let addr t g = t.proto.base_group + g - 1
let stop t = t.stopped <- true
let join t g = Multicast.host_join t.topo ~host:t.host ~group:(addr t g)
let leave_group t g = Multicast.host_leave t.topo ~host:t.host ~group:(addr t g)

let session_join t =
  match t.client with
  | Some client -> Client.session_join client ~group:(addr t 1)
  | None -> ()

let subscribe t ~slot pairs =
  match t.client with
  | Some client when pairs <> [] -> Client.subscribe client ~slot ~pairs
  | Some _ | None -> ()

let unsubscribe t lo hi =
  match t.client with
  | Some client ->
      Client.unsubscribe client
        ~groups:(List.init (hi - lo + 1) (fun i -> addr t (lo + i)))
  | None -> ()

let knock t slot =
  if slot.lanes.(0).count = 0 && t.level = 1 then session_join t

let leave t =
  if not t.stopped then begin
    let groups = List.init (max 0 t.level) (fun i -> addr t (i + 1)) in
    (match t.client with
    | Some client when groups <> [] -> Client.unsubscribe client ~groups
    | Some _ | None ->
        List.iter
          (fun group -> Multicast.host_leave t.topo ~host:t.host ~group)
          groups);
    t.stopped <- true
  end

let set_level t level =
  t.level <- level;
  let time = Sim.now (Topology.sim t.topo) in
  let names = t.proto.names in
  Series.add t.series ~time ~value:(float_of_int level);
  Metrics.tick names.changes;
  if Tracer.enabled () then
    Tracer.emit ~sim_time:time ~component:names.component ~event:names.event
      (fun () ->
        ("host", Json.Int t.host.Node.id)
        :: (names.field, Json.Int t.level)
        :: t.proto.attrs t.state)

(* The level DELTA keys opened for slot+2, under SIGMA: shed groups are
   released (unless [release] is false: an inflating receiver keeps
   them), fresh ones are evaluated from slot+2 on. *)
let resubscribe t ~slot ~release next =
  let level = t.level in
  if next < level then begin
    if release then unsubscribe t (max 0 next + 1) level;
    for g = max 1 next + 1 to level do
      t.active_since.(g - 1) <- max_int
    done
  end;
  if next > level then t.active_since.(next - 1) <- slot + 2;
  if next = 0 then begin
    (* Even the minimal group's key chain broke: re-admit through
       SIGMA's session-join once the current grant lapses. *)
    session_join t;
    t.active_since.(0) <- slot + 3;
    if level <> 1 then set_level t 1
  end
  else if next <> level then set_level t next

let slot_rec t slot =
  match Hashtbl.find_opt t.slots slot with
  | Some rec_ -> rec_
  | None ->
      let rec_ =
        {
          lanes =
            Array.init t.proto.lane_count (fun _ ->
                { count = 0; marked = 0; last = -1 });
          keys = Option.map (fun create -> create ()) t.proto.new_keys;
          mask = 0;
        }
      in
      Hashtbl.replace t.slots slot rec_;
      rec_

(* Largest level e <= the subscribed lanes such that every lane 1..e has
   been active since before [slot]: partial slots of freshly joined
   groups must not count as losses. *)
let effective_level t slot =
  let top = min t.level t.proto.lane_count in
  let rec climb e =
    if e >= top then top else if t.active_since.(e) <= slot then climb (e + 1)
    else e
  in
  if t.active_since.(0) <= slot then climb 1 else 0

let group_lost rec_ g =
  let lane = rec_.lanes.(g - 1) in
  lane.count = 0 || lane.last < 0 || lane.count < lane.last + 1

let eval_next t =
  let slot = t.next_eval in
  t.proto.law t slot (slot_rec t slot);
  (* Drop bookkeeping for this and any older slot. *)
  let stale =
    Hashtbl.fold (fun s _ acc -> if s <= slot then s :: acc else acc) t.slots []
  in
  List.iter (Hashtbl.remove t.slots) stale;
  t.next_eval <- slot + 1

(* A lane's slot is closed once its flagged last packet arrived or a
   packet of a later slot did: the path is FIFO, so nothing of the slot
   can still be in flight.  A slot is ready for evaluation when every
   lane of the effective subscription closed it. *)
let slot_closed t slot =
  let effective = effective_level t slot in
  effective >= 1
  &&
  let rec check g =
    if g > effective then true
    else
      (t.highest.(g - 1) > slot
      ||
      match Hashtbl.find_opt t.slots slot with
      | Some rec_ -> rec_.lanes.(g - 1).last >= 0
      | None -> false)
      && check (g + 1)
  in
  check 1

let rec try_eval t =
  if (not t.stopped) && slot_closed t t.next_eval then begin
    eval_next t;
    try_eval t
  end

(* Wall-clock fallback: when a subscribed group goes completely silent
   nothing closes the slot, so evaluate [processing_margin] of a slot
   after the boundary regardless (late packets then count as lost, as in
   FLID-DL).  0.9 of a slot is longer than the worst drop-tail queueing
   delay (two RTTs with the paper's buffers), so a merely-delayed slot
   is never misread as silence. *)
let processing_margin = 0.9

let rec schedule_eval t =
  if not t.stopped then begin
    let sim = Topology.sim t.topo in
    let p = t.proto in
    let slot = t.next_eval in
    let at =
      t.base
      +. (float_of_int (slot + 1) *. p.slot_duration)
      +. (processing_margin *. p.slot_duration)
    in
    let at = Float.max at (Sim.now sim) in
    Sim.post sim ~at (fun () ->
        if not t.stopped then begin
          if t.next_eval = slot then begin
            eval_next t;
            try_eval t
          end;
          schedule_eval t
        end)
  end

let on_packet t pkt ~group ~slot ~seq ~last ~mask =
  let now = Sim.now (Topology.sim t.topo) in
  Meter.record t.meter ~time:now ~bytes:pkt.Packet.size;
  let candidate_base = now -. (float_of_int slot *. t.proto.slot_duration) in
  if not t.synced then begin
    t.synced <- true;
    t.base <- candidate_base;
    t.next_eval <- slot + 1;
    if t.active_since.(0) = max_int then t.active_since.(0) <- slot + 1;
    schedule_eval t
  end
  else t.base <- Float.min t.base candidate_base;
  let lane = t.proto.lane_of ~level:t.level ~group in
  if lane >= 0 then t.highest.(lane) <- max t.highest.(lane) slot;
  if slot >= t.next_eval then begin
    let rec_ = slot_rec t slot in
    if lane >= 0 then begin
      let l = rec_.lanes.(lane) in
      l.count <- l.count + 1;
      if pkt.Packet.ecn then l.marked <- l.marked + 1;
      if last then l.last <- seq
    end;
    rec_.mask <- rec_.mask lor mask;
    match rec_.keys with
    | Some keys -> t.proto.feed keys pkt.Packet.payload
    | None -> ()
  end;
  try_eval t

let create topo ~host proto state =
  let t =
    {
      proto;
      state;
      topo;
      host;
      client =
        (match proto.new_keys with
        | Some _ -> Some (Client.create ~width:proto.key_width topo ~host)
        | None -> None);
      meter = Meter.create ();
      series = Series.create ();
      level = 1;
      active_since = Array.make proto.lane_count max_int;
      highest = Array.make proto.lane_count (-1);
      slots = Hashtbl.create 8;
      base = infinity;
      synced = false;
      next_eval = 0;
      stopped = false;
    }
  in
  (* Per-receiver trajectories (no-op unless sampling is on): goodput in
     kbit/s and the current level — the curves of the paper's
     attack/recovery figures. *)
  if Timeseries.enabled () then begin
    let name suffix =
      Printf.sprintf "%s.s%d.h%d.%s" proto.names.prefix proto.session
        host.Node.id suffix
    in
    Timeseries.sample_rate ~scale:0.008 (name "goodput_kbps") (fun () ->
        float_of_int (Meter.total_bytes t.meter));
    Timeseries.sample_gauge (name proto.names.field) (fun () ->
        float_of_int t.level)
  end;
  t

let start ?(at = 0.) t on_data =
  for g = 1 to t.proto.groups do
    Node.subscribe_local t.host ~group:(addr t g) on_data
  done;
  Sim.post (Topology.sim t.topo) ~at (fun () ->
      match t.client with Some _ -> session_join t | None -> join t 1)
