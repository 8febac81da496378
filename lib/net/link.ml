module Sim = Mcc_engine.Sim
module Metrics = Mcc_obs.Metrics
module Tracer = Mcc_obs.Tracer
module Timeseries = Mcc_obs.Timeseries
module Json = Mcc_obs.Json
module Prof = Mcc_obs.Prof
module Lineage = Mcc_obs.Lineage

type dst_kind = To_host | To_router | To_lan

type event = Tx_start | Enqueued | Dropped | Marked | Delivered

let event_name = function
  | Tx_start -> "tx"
  | Enqueued -> "enq"
  | Dropped -> "drop"
  | Marked -> "mark"
  | Delivered -> "rx"

(* The link's one count of each event.  Its metrics reader reports
   them as the domain's "link.*" counters, which sum over every link. *)
type counters = {
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable enqueues : int;
  mutable enqueue_bytes : int;
  mutable drops : int;
  mutable drop_bytes : int;
  mutable marks : int;
  mutable mark_bytes : int;
}

let report c add =
  add "link.tx_packets" c.tx_packets;
  add "link.tx_bytes" c.tx_bytes;
  add "link.enqueues" c.enqueues;
  add "link.enqueue_bytes" c.enqueue_bytes;
  add "link.drops" c.drops;
  add "link.drop_bytes" c.drop_bytes;
  add "link.marks" c.marks;
  add "link.mark_bytes" c.mark_bytes

type t = {
  id : int;
  src : int;
  dst : int;
  dst_kind : dst_kind;
  rate_bps : float;
  delay_s : float;
  buffer_bytes : int;
  buffer_packets : int option;
  ecn_threshold_bytes : int option;
  sim : Sim.t;
  queue : Packet.t Pool.Fifo.t;
  mutable queued_bytes : int;
  mutable busy : bool;
  mutable rev : t option;
  mutable deliver : Packet.t -> unit;
  counts : counters;
}

let create ~sim ~id ~src ~dst ~dst_kind ~rate_bps ~delay_s ~buffer_bytes
    ?buffer_packets ?ecn_threshold_bytes () =
  if rate_bps <= 0. then invalid_arg "Link.create: rate_bps <= 0";
  if delay_s < 0. then invalid_arg "Link.create: negative delay";
  if buffer_bytes < 0 then invalid_arg "Link.create: negative buffer";
  let counts =
    {
      tx_packets = 0;
      tx_bytes = 0;
      enqueues = 0;
      enqueue_bytes = 0;
      drops = 0;
      drop_bytes = 0;
      marks = 0;
      mark_bytes = 0;
    }
  in
  (* The reader holds the counters, not the link, so a finished
     scenario stays collectable. *)
  Metrics.reader counts report;
  let t =
    {
      id;
      src;
      dst;
      dst_kind;
      rate_bps;
      delay_s;
      buffer_bytes;
      buffer_packets;
      ecn_threshold_bytes;
      sim;
      (* Ring buffer, not Stdlib.Queue: the FIFO is entirely internal to
         the link, and the ring allocates nothing per enqueue. *)
      queue = Pool.Fifo.create ();
      queued_bytes = 0;
      busy = false;
      rev = None;
      deliver = (fun _ -> ());
      counts;
    }
  in
  (* Per-link time series (no-ops unless the run enabled sampling):
     instantaneous queue depth plus drop and throughput rates — the
     trajectories behind the paper's bottleneck figures. *)
  if Timeseries.enabled () then begin
    let name suffix = Printf.sprintf "link.%d.%s" id suffix in
    Timeseries.sample_gauge (name "queue_bytes") (fun () ->
        float_of_int t.queued_bytes);
    Timeseries.sample_rate (name "drops_per_s") (fun () ->
        float_of_int counts.drops);
    Timeseries.sample_rate ~scale:0.008 (name "tx_kbps") (fun () ->
        float_of_int counts.tx_bytes)
  end;
  t

let[@hot] tx_time t pkt = float_of_int (pkt.Packet.size * 8) /. t.rate_bps

(* Hot path: [Tracer.enabled] first, so runs without a sink pay one
   branch and allocate nothing. *)
let[@hot] trace t event pkt =
  if Tracer.enabled () then
    Tracer.emit_at
      ~level:(match event with Dropped | Marked -> Tracer.Info | _ -> Tracer.Debug)
      ~sim_time:(Sim.now t.sim) ~component:"link" ~event:(event_name event)
      (* lint: allow hot-alloc — field thunk built only with a live sink *)
      (fun () ->
        [
          ("link", Json.Int t.id);
          ("src", Json.Int t.src);
          ("dst", Json.Int t.dst);
          ("uid", Json.Int pkt.Packet.uid);
          ("size", Json.Int pkt.Packet.size);
          ("mcast", Json.Bool (Packet.is_multicast pkt));
        ])

(* Lineage hop labels: constant strings, so stamping a hop allocates
   nothing.  ECN marks are credited to "red" — in a latency breakdown
   they are the AQM's doing, not the FIFO's — under the label the
   golden lineage digests already hash. *)
let[@hot] hop_name = function
  | Tx_start -> "link.tx"
  | Enqueued -> "link.enq"
  | Dropped -> "link.drop"
  | Marked -> "red.mark"
  | Delivered -> "link.rx"

let[@hot] note t event pkt =
  Lineage.hop pkt.Packet.lineage ~time:(Sim.now t.sim) (hop_name event);
  trace t event pkt

let rec start_tx t pkt =
  t.busy <- true;
  let c = t.counts in
  c.tx_packets <- c.tx_packets + 1;
  c.tx_bytes <- c.tx_bytes + pkt.Packet.size;
  note t Tx_start pkt;
  Sim.post_after t.sim ~delay:(tx_time t pkt) (fun () ->
         (* Serialization finished: launch propagation, then service the
            next queued packet. *)
         let sp = Prof.span "link" in
         Sim.post_after t.sim ~delay:t.delay_s (fun () ->
             let sp = Prof.span "link" in
             note t Delivered pkt;
             Prof.finish sp;
             t.deliver pkt);
         if Pool.Fifo.is_empty t.queue then t.busy <- false
         else begin
           let next = Pool.Fifo.pop t.queue in
           t.queued_bytes <- t.queued_bytes - next.Packet.size;
           start_tx t next
         end;
         Prof.finish sp)

let[@hot] mark t pkt =
  pkt.Packet.ecn <- true;
  let c = t.counts in
  c.marks <- c.marks + 1;
  c.mark_bytes <- c.mark_bytes + pkt.Packet.size;
  note t Marked pkt

let[@hot] send_body t pkt =
  let packet_room =
    match t.buffer_packets with
    | Some cap -> Pool.Fifo.length t.queue < cap
    | None -> true
  in
  if not t.busy then begin
    start_tx t pkt;
    true
  end
  else if packet_room && t.queued_bytes + pkt.Packet.size <= t.buffer_bytes
  then begin
    (match t.ecn_threshold_bytes with
    | Some thr when t.queued_bytes >= thr -> mark t pkt
    | Some _ | None -> ());
    Pool.Fifo.push t.queue pkt;
    t.queued_bytes <- t.queued_bytes + pkt.Packet.size;
    let c = t.counts in
    c.enqueues <- c.enqueues + 1;
    c.enqueue_bytes <- c.enqueue_bytes + pkt.Packet.size;
    note t Enqueued pkt;
    true
  end
  else begin
    let c = t.counts in
    c.drops <- c.drops + 1;
    c.drop_bytes <- c.drop_bytes + pkt.Packet.size;
    note t Dropped pkt;
    false
  end

let send t pkt =
  let sp = Prof.span "link" in
  let accepted = send_body t pkt in
  Prof.finish sp;
  accepted

let control_delay t = t.delay_s
