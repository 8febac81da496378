module Sim = Mcc_engine.Sim
module Node = Mcc_net.Node
module Packet = Mcc_net.Packet
module Payload = Mcc_net.Payload
module Meter = Mcc_util.Meter
module Metrics = Mcc_obs.Metrics

type Payload.t +=
  | Tcp_data of { flow : int; seq : int }
  | Tcp_ack of { flow : int; ack : int }

(* Bytes on the wire per data segment (the paper's packet size) and
   per ACK, and the RTO clamp in seconds. *)
let segment_size = 576
let ack_size = 40
let min_rto = 0.5
let max_rto = 60.

(* The flow's one count of each event, which its metrics reader reports
   as the domain's "tcp.*" counters. *)
type counters = { mutable retransmissions : int; mutable timeouts : int }

let report c add =
  add "tcp.retransmits" c.retransmissions;
  add "tcp.rto_fires" c.timeouts

type t = {
  sim : Sim.t;
  flow : int;
  src : Node.t;
  dst : Node.t;
  meter : Meter.t;
  (* sender state *)
  mutable cwnd : float;  (* segments *)
  mutable ssthresh : float;
  mutable snd_una : int;  (* lowest unacked seq *)
  mutable snd_nxt : int;  (* next seq to send *)
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover : int;  (* highest seq outstanding when loss detected *)
  mutable srtt : float option;
  mutable rttvar : float;
  mutable rto : float;
  mutable backoff : float;
  mutable timing : (int * float) option;  (* (seq, send time) RTT sample *)
  rto_timer : Sim.timer;
  on_rto : unit -> unit;  (* [on_timeout] of this flow, built once *)
  counts : counters;
  mutable running : bool;
  (* receiver state *)
  mutable rcv_nxt : int;
  ooo : (int, unit) Hashtbl.t;  (* out-of-order segments buffered at sink *)
  h_rtt_ms : Metrics.histogram;
}

let delivered_meter t = t.meter
let cwnd t = t.cwnd
let retransmissions t = t.counts.retransmissions

let flight t = t.snd_nxt - t.snd_una

let send_segment t ~seq ~retransmit =
  if retransmit then begin
    t.counts.retransmissions <- t.counts.retransmissions + 1;
    (* Karn: never sample the RTT of a retransmitted segment. *)
    match t.timing with
    | Some (s, _) when s = seq -> t.timing <- None
    | Some _ | None -> ()
  end
  else if t.timing = None then t.timing <- Some (seq, Sim.now t.sim);
  let pkt =
    Packet.make ~src:t.src.Node.id ~dst:(Packet.Unicast t.dst.Node.id)
      ~size:segment_size
      (Tcp_data { flow = t.flow; seq })
  in
  Node.originate t.src pkt

(* Re-arms the flow's one RTO timer in place; disarms it only when
   nothing is left to time. *)
let rec arm_rto t =
  if flight t > 0 && t.running then begin
    let delay = min max_rto (t.rto *. t.backoff) in
    Sim.arm t.rto_timer ~at:(Sim.now t.sim +. delay) t.on_rto
  end
  else Sim.disarm t.rto_timer

and on_timeout t =
  if flight t > 0 && t.running then begin
    t.counts.timeouts <- t.counts.timeouts + 1;
    t.ssthresh <- Float.max (float_of_int (flight t) /. 2.) 2.;
    t.cwnd <- 1.;
    t.dupacks <- 0;
    t.in_recovery <- false;
    t.backoff <- Float.min (t.backoff *. 2.) 64.;
    t.timing <- None;
    send_segment t ~seq:t.snd_una ~retransmit:true;
    arm_rto t
  end

let fill_window t =
  if t.running then begin
    let window = max 1 (int_of_float t.cwnd) in
    let started_empty = flight t = 0 in
    while flight t < window do
      send_segment t ~seq:t.snd_nxt ~retransmit:false;
      t.snd_nxt <- t.snd_nxt + 1
    done;
    if started_empty && flight t > 0 then arm_rto t
  end

let rtt_sample t r =
  Metrics.observe t.h_rtt_ms (r *. 1000.);
  (match t.srtt with
  | None ->
      t.srtt <- Some r;
      t.rttvar <- r /. 2.
  | Some srtt ->
      let delta = Float.abs (srtt -. r) in
      t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. delta);
      t.srtt <- Some ((0.875 *. srtt) +. (0.125 *. r)));
  let srtt = Option.value t.srtt ~default:r in
  t.rto <-
    Float.min max_rto (Float.max min_rto (srtt +. (4. *. t.rttvar)))

let on_ack t ack =
  if ack > t.snd_una then begin
    (* New data acknowledged. *)
    (match t.timing with
    | Some (seq, sent) when ack > seq ->
        rtt_sample t (Sim.now t.sim -. sent);
        t.timing <- None
    | Some _ | None -> ());
    t.backoff <- 1.;
    t.snd_una <- ack;
    if t.in_recovery then begin
      (* Reno: leave recovery on the first new ACK, deflating the window. *)
      t.in_recovery <- false;
      t.cwnd <- t.ssthresh
    end
    else if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. 1.
    else t.cwnd <- t.cwnd +. (1. /. t.cwnd);
    t.dupacks <- 0;
    arm_rto t;
    fill_window t
  end
  else if ack = t.snd_una && flight t > 0 then begin
    t.dupacks <- t.dupacks + 1;
    if t.in_recovery then begin
      t.cwnd <- t.cwnd +. 1.;
      fill_window t
    end
    else if t.dupacks = 3 then begin
      t.ssthresh <- Float.max (float_of_int (flight t) /. 2.) 2.;
      t.recover <- t.snd_nxt - 1;
      t.in_recovery <- true;
      send_segment t ~seq:t.snd_una ~retransmit:true;
      t.cwnd <- t.ssthresh +. 3.;
      arm_rto t
    end
  end

let send_ack t =
  let pkt =
    Packet.make ~src:t.dst.Node.id ~dst:(Packet.Unicast t.src.Node.id)
      ~size:ack_size
      (Tcp_ack { flow = t.flow; ack = t.rcv_nxt })
  in
  Node.originate t.dst pkt

let on_data t seq =
  if seq = t.rcv_nxt then begin
    t.rcv_nxt <- t.rcv_nxt + 1;
    Meter.record t.meter ~time:(Sim.now t.sim) ~bytes:segment_size;
    let rec drain () =
      if Hashtbl.mem t.ooo t.rcv_nxt then begin
        Hashtbl.remove t.ooo t.rcv_nxt;
        t.rcv_nxt <- t.rcv_nxt + 1;
        Meter.record t.meter ~time:(Sim.now t.sim) ~bytes:segment_size;
        drain ()
      end
    in
    drain ()
  end
  else if seq > t.rcv_nxt then Hashtbl.replace t.ooo seq ();
  send_ack t

let start ?(at = 0.) topo ~flow ~src ~dst () =
  let sim = Mcc_net.Topology.sim topo in
  let counts = { retransmissions = 0; timeouts = 0 } in
  (* The reader holds the counters, not the flow, so a finished
     scenario stays collectable. *)
  Metrics.reader counts report;
  let rec t =
    {
      sim;
      flow;
      src;
      dst;
      meter = Meter.create ();
      cwnd = 1.;
      ssthresh = 64.;
      snd_una = 0;
      snd_nxt = 0;
      dupacks = 0;
      in_recovery = false;
      recover = 0;
      srtt = None;
      rttvar = 0.;
      rto = 3.;
      backoff = 1.;
      timing = None;
      rto_timer = Sim.timer sim;
      on_rto = (fun () -> on_timeout t);
      counts;
      running = false;
      rcv_nxt = 0;
      ooo = Hashtbl.create 64;
      h_rtt_ms =
        Metrics.histogram "tcp.rtt_ms"
          ~bounds:(Metrics.exponential_bounds ~base:10. ~count:8);
    }
  in
  Node.add_unicast_handler dst (fun pkt ->
      match pkt.Packet.payload with
      | Tcp_data { flow = f; seq } when f = flow ->
          on_data t seq;
          true
      | _ -> false);
  Node.add_unicast_handler src (fun pkt ->
      match pkt.Packet.payload with
      | Tcp_ack { flow = f; ack } when f = flow ->
          on_ack t ack;
          true
      | _ -> false);
  Sim.post sim ~at (fun () ->
         t.running <- true;
         fill_window t);
  t
