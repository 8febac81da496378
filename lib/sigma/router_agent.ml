module Sim = Mcc_engine.Sim
module Node = Mcc_net.Node
module Itbl = Node.Itbl
module Link = Mcc_net.Link
module Packet = Mcc_net.Packet
module Topology = Mcc_net.Topology
module Multicast = Mcc_net.Multicast
module Key = Mcc_delta.Key

module Metrics = Mcc_obs.Metrics
module Tracer = Mcc_obs.Tracer
module Timeseries = Mcc_obs.Timeseries
module Json = Mcc_obs.Json
module Prof = Mcc_obs.Prof
module Lineage = Mcc_obs.Lineage

type config = { upgrade_grace_slots : float; interface_keys : bool }

let default_config = { upgrade_grace_slots = 2.0; interface_keys = false }

(* Slots of unconditional forwarding after a session-join, and of the
   base forwarding pause when one expires keyless (paper: at least one
   slot). *)
let join_grace_slots = 3.0
let lockout_slots = 1.0

(* Seconds between expiry sweeps. *)
let cleanup_period = 0.05

type slot_entry = {
  keys : Key.t list;
  est_start : float;  (** estimated wall-clock start of the guarded slot *)
  duration : float;
}

(* A slot entry outlives its guarded slot by nine durations: the sweep
   drops it once this time has passed. *)
let expiry entry = entry.est_start +. (10. *. entry.duration)

type group_info = {
  mutable minimal : bool;
  mutable latest_duration : float;
  mutable session_minimal : int option;
      (** address of this group's session's minimal group, learnt from
          the special-packet batches *)
  slots : (int, slot_entry) Hashtbl.t;
  mutable purge_at : float;
      (** the earliest {!expiry} among [slots] ([infinity] when empty):
          the sweep folds [slots] only once it has passed *)
}

type grant = {
  mutable granted_until : float;
  mutable grace_until : float;
  mutable lockout_until : float;
  mutable by_join : bool;  (** grace came from a keyless session-join *)
  mutable grafted : bool;
  mutable join_strikes : int;
      (** keyless admissions that expired (or left) without the
          interface ever validating a key; doubles the next lockout, so
          join/leave cycling through the grace decays geometrically
          instead of settling at a duty cycle *)
}

type iface = {
  link : Link.t;  (** router -> host/LAN direction *)
  grants : grant Itbl.t;  (* by group *)
}

type stats = {
  subscriptions : int;
  keys_accepted : int;
  keys_rejected : int;
  acks : int;
  upgrade_graces : int;
  grace_admissions : int;
  suppressed_duplicates : int;
  unsubscribes : int;
  lockouts : int;
  special_packets : int;
  distinct_guesses : int;
}

(* Running tallies behind {!stats}, the one source of every field; each
   bump also feeds the domain's "sigma.*" metrics, whose handles live
   alongside. *)
type tallies = {
  mutable t_subscriptions : int;
  mutable t_keys_accepted : int;
  mutable t_keys_rejected : int;
  mutable t_acks : int;
  mutable t_upgrade_graces : int;
  mutable t_grace_admissions : int;
  mutable t_dup_joins : int;
  mutable t_fec_dups : int;
  mutable t_unsubscribes : int;
  mutable t_lockouts : int;
  mutable t_specials : int;
  mutable t_guesses : int;
  m_subscriptions : Metrics.counter;
  m_keys_accepted : Metrics.counter;
  m_keys_rejected : Metrics.counter;
  m_acks : Metrics.counter;
  m_upgrade_graces : Metrics.counter;
  m_grace_admissions : Metrics.counter;
  m_suppressed : Metrics.counter;
  m_unsubscribes : Metrics.counter;
  m_lockouts : Metrics.counter;
  m_specials : Metrics.counter;
  m_guesses : Metrics.counter;
  h_subscribe_pairs : Metrics.histogram;
}

let tallies_create () =
  {
    t_subscriptions = 0;
    t_keys_accepted = 0;
    t_keys_rejected = 0;
    t_acks = 0;
    t_upgrade_graces = 0;
    t_grace_admissions = 0;
    t_dup_joins = 0;
    t_fec_dups = 0;
    t_unsubscribes = 0;
    t_lockouts = 0;
    t_specials = 0;
    t_guesses = 0;
    m_subscriptions = Metrics.counter "sigma.subscriptions";
    m_keys_accepted = Metrics.counter "sigma.keys_accepted";
    m_keys_rejected = Metrics.counter "sigma.keys_rejected";
    m_acks = Metrics.counter "sigma.acks";
    m_upgrade_graces = Metrics.counter "sigma.upgrade_graces";
    m_grace_admissions = Metrics.counter "sigma.grace_admissions";
    m_suppressed = Metrics.counter "sigma.suppressed_duplicates";
    m_unsubscribes = Metrics.counter "sigma.unsubscribes";
    m_lockouts = Metrics.counter "sigma.lockouts";
    m_specials = Metrics.counter "sigma.specials";
    m_guesses = Metrics.counter "sigma.guesses";
    h_subscribe_pairs =
      Metrics.histogram "sigma.subscribe_pairs"
        ~bounds:(Metrics.exponential_bounds ~base:1. ~count:5);
  }

(* One receiver's run of rejected keys: opened at the first invalid
   (group, key) pair, extended by every further rejection, closed by the
   next fully valid Subscribe.  The span boundaries are also emitted as
   Warn-level "key_failure_start"/"key_failure_end" trace events, which
   is what [mcc report] reads back as the attack timeline. *)
type failure_span = {
  f_receiver : int;
  f_first : float;
  mutable f_last : float;
  mutable f_rejects : int;
  mutable f_ended : float option;
}

type key_failure = {
  kf_receiver : int;
  kf_first : float;
  kf_last : float;
  kf_rejects : int;
  kf_ended : float option;
}

type t = {
  topo : Topology.t;
  node : Node.t;
  config : config;
  groups : group_info Itbl.t;
  ifaces : iface Itbl.t;  (* keyed by link id *)
  decoders : (int, int * Fec.decoder) Hashtbl.t;
      (* session -> its newest slot and that slot's decoder *)
  guesses : (int * int, (Key.t, unit) Hashtbl.t) Hashtbl.t;
  sessions : (int, int list ref) Hashtbl.t;
      (* minimal-group address -> all group addresses of the session *)
  control_held : (int, unit) Hashtbl.t;
      (* minimal groups the router itself is grafted to, keeping the
         special-packet channel alive while receivers hold only higher
         groups *)
  live : unit Itbl.t;
      (* scratch set for the sweep: groups some interface holds an
         active grant for *)
  pads : (int * int * int, Key.t) Hashtbl.t;
      (* (link id, group, guarded slot) -> XOR of the pads applied to
         that interface's forwarded components: the delta between the
         sender's upper keys and the interface-specific lower keys
         (paper Section 4.2, collusion resistance) *)
  dec_pads : (int * int * int, Key.t) Hashtbl.t;
      (* (link id, group, guarded slot) -> the single stable pad applied
         to every copy of that group's decrease key forwarded down the
         interface, making decrease keys interface-specific too (they
         are per-slot constants, so one pad, not an XOR accumulator) *)
  mutable scrubber : (Link.t -> Packet.t -> unit) option;
  tallies : tallies;
  failures : (int, failure_span) Hashtbl.t;  (* open spans, by receiver *)
  mutable closed_failures : failure_span list;  (* newest first *)
}

let now t = Sim.now (Topology.sim t.topo)

let trace ?level t event attrs =
  if Tracer.enabled () then
    Tracer.emit ?level ~sim_time:(now t) ~component:"sigma.router" ~event
      (fun () -> ("router", Json.Int t.node.Node.id) :: attrs ())

let group_info t group =
  match Itbl.find_opt t.groups group with
  | Some gi -> gi
  | None ->
      let gi =
        {
          minimal = false;
          latest_duration = 0.5;
          session_minimal = None;
          slots = Hashtbl.create 32;
          purge_at = infinity;
        }
      in
      Itbl.replace t.groups group gi;
      Itbl.replace t.node.Node.protected_groups group ();
      gi

let iface_of_link t (link : Link.t) =
  match Itbl.find_opt t.ifaces link.Link.id with
  | Some i -> i
  | None ->
      let i = { link; grants = Itbl.create 8 } in
      Itbl.replace t.ifaces link.Link.id i;
      i

let iface_toward t receiver =
  match Itbl.find_opt t.node.Node.fib receiver with
  | Some link -> Some (iface_of_link t link)
  | None -> None

let grant_of _t iface group =
  match Itbl.find_opt iface.grants group with
  | Some g -> g
  | None ->
      let g =
        {
          granted_until = neg_infinity;
          grace_until = neg_infinity;
          lockout_until = neg_infinity;
          by_join = false;
          grafted = false;
          join_strikes = 0;
        }
      in
      Itbl.replace iface.grants group g;
      g

let active_at grant time =
  time < grant.granted_until || time < grant.grace_until

(* The lockout charged when a keyless (session-join) admission ends
   without the interface ever validating a key — at grace expiry, on an
   early leave, or when tuples reveal the group as non-minimal.  Doubles
   per consecutive strike, capped at 4x the base lockout: enough that
   cycling through the join grace decays to a minority duty cycle, mild
   enough that an honest receiver whose keys fail under heavy ECN
   scrubbing is paused, not starved.  A validated key resets the count
   (Section 3.2.2's lockout, hardened against grace churn). *)
let charge_join_lockout t grant ~group ~time ~duration =
  let scale = float_of_int (1 lsl min grant.join_strikes 2) in
  grant.join_strikes <- grant.join_strikes + 1;
  grant.lockout_until <-
    Float.max grant.lockout_until
      (time +. (lockout_slots *. duration *. scale));
  grant.by_join <- false;
  t.tallies.t_lockouts <- t.tallies.t_lockouts + 1;
  Metrics.incr t.tallies.m_lockouts;
  Timeseries.record "sigma.evictions" ~time ~value:(float_of_int group);
  trace t "lockout" (fun () ->
      [ ("group", Json.Int group); ("strikes", Json.Int grant.join_strikes) ])

(* --- enforcement hooks ------------------------------------------------ *)

let[@hot] filter t group link =
  if not (Itbl.mem t.groups group) then true (* unprotected group *)
  else
    match Itbl.find_opt t.ifaces link.Link.id with
    | None -> false
    | Some iface -> (
        match Itbl.find_opt iface.grants group with
        | None -> false
        | Some grant -> active_at grant (now t))

let on_forward t _group (link : Link.t) pkt =
  match link.Link.dst_kind with
  | Link.To_host | Link.To_lan -> (
      (* The transform rewrites components: always on marked packets
         (ECN scrub), and on every copy when interface-specific keys
         are enabled (collusion resistance). *)
      if pkt.Packet.ecn || t.config.interface_keys then
        match t.scrubber with Some f -> f link pkt | None -> ())
  | Link.To_router -> ()

(* --- graft / prune glue ------------------------------------------------ *)

(* Keep the session's special-packet channel (its minimal-group tree)
   alive at this router while any local grant exists, even when no
   interface subscribes to the minimal group itself. *)
let ensure_control_channel t group =
  match Itbl.find_opt t.groups group with
  | Some { session_minimal = Some m; _ } ->
      if not (Hashtbl.mem t.control_held m) then begin
        Hashtbl.replace t.control_held m ();
        Multicast.graft_local t.topo ~node:t.node ~group:m
      end
  | Some { session_minimal = None; _ } | None -> ()

(* Pruning and lockouts leave every grant's [active_at] as it was, so
   the set of live groups is built once, before any channel is
   released. *)
let release_idle_control_channels t =
  if Hashtbl.length t.control_held > 0 then begin
    let time = now t in
    Itbl.clear t.live;
    Itbl.iter
      (fun _ iface ->
        Itbl.iter
          (fun g grant -> if active_at grant time then Itbl.replace t.live g ())
          iface.grants)
      t.ifaces;
    let active_session m =
      match Hashtbl.find_opt t.sessions m with
      | None -> false
      | Some members -> List.exists (Itbl.mem t.live) !members
    in
    let held = Hashtbl.fold (fun m () acc -> m :: acc) t.control_held [] in
    List.iter
      (fun m ->
        if not (active_session m) then begin
          Hashtbl.remove t.control_held m;
          Multicast.prune_local t.topo ~node:t.node ~group:m
        end)
      held
  end

let graft_iface t iface group =
  let grant = grant_of t iface group in
  ensure_control_channel t group;
  if not grant.grafted then begin
    grant.grafted <- true;
    Multicast.graft t.topo ~node:t.node ~group ~down:iface.link
  end

let prune_iface t iface group =
  let grant = grant_of t iface group in
  if grant.grafted then begin
    grant.grafted <- false;
    Multicast.prune t.topo ~node:t.node ~group ~down:iface.link
  end

(* --- key store -------------------------------------------------------- *)

let store_tuples t ~slot ~slot_duration tuples =
  let time = now t in
  let batch_minimal =
    List.find_map
      (fun (tuple : Tuple.t) ->
        if tuple.Tuple.minimal then Some tuple.Tuple.group else None)
      tuples
  in
  (match batch_minimal with
  | Some m ->
      let members =
        match Hashtbl.find_opt t.sessions m with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.replace t.sessions m l;
            l
      in
      List.iter
        (fun (tuple : Tuple.t) ->
          if not (List.mem tuple.Tuple.group !members) then
            members := tuple.Tuple.group :: !members)
        tuples
  | None -> ());
  List.iter
    (fun (tuple : Tuple.t) ->
      let gi = group_info t tuple.Tuple.group in
      gi.latest_duration <- slot_duration;
      gi.session_minimal <- (match batch_minimal with
                             | Some _ as m -> m
                             | None -> gi.session_minimal);
      if tuple.Tuple.minimal then gi.minimal <- true;
      if not (Hashtbl.mem gi.slots slot) then begin
        let entry =
          {
            keys = tuple.Tuple.keys;
            (* Tuples for slot s are sent during slot s-2 starting at its
               first instant, so the guarded slot opens two durations
               after the first special packet lands (paper Figure 2). *)
            est_start = time +. (2. *. slot_duration);
            duration = slot_duration;
          }
        in
        Hashtbl.replace gi.slots slot entry;
        gi.purge_at <- Float.min gi.purge_at (expiry entry)
      end;
      (* A session-join grace for a group that tuples now reveal to be
         non-minimal was an inflation attempt: revoke it, interface by
         interface in link-id order. *)
      if not gi.minimal then begin
        let group = tuple.Tuple.group in
        let joined =
          Itbl.fold
            (fun link_id iface acc ->
              match Itbl.find_opt iface.grants group with
              | Some grant when grant.by_join -> (link_id, iface, grant) :: acc
              | Some _ | None -> acc)
            t.ifaces []
        in
        (* This runs per tuple: build no closure when nothing is to be
           revoked. *)
        match joined with
        | [] -> ()
        | _ :: _ ->
            List.iter
              (fun (_, iface, grant) ->
                grant.grace_until <- neg_infinity;
                charge_join_lockout t grant ~group ~time
                  ~duration:slot_duration;
                prune_iface t iface group)
              (List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) joined)
      end)
    tuples

let on_special t pkt =
  match pkt.Packet.payload with
  | Messages.Special { session; slot; slot_duration; chunk; total_chunks; copy;
                       tuples } ->
      (* Specials reach the router in slot order: {!Special.distribute}
         sends all of slot s's within the first half of slot s-2, and
         links are FIFO.  So the first special of a newer slot retires
         the session's decoder, and no later special needs it. *)
      let decoder =
        match Hashtbl.find_opt t.decoders session with
        | Some (newest, d) when newest = slot -> d
        | Some _ | None ->
            let d = Fec.decoder_create () in
            Hashtbl.replace t.decoders session (slot, d);
            d
      in
      let is_parity = chunk = total_chunks in
      let coded =
        {
          Fec.chunk;
          total_chunks;
          copy;
          tuples = (if is_parity then [] else tuples);
          recovery = (if is_parity then tuples else []);
          wire_bytes = pkt.Packet.size;
        }
      in
      t.tallies.t_specials <- t.tallies.t_specials + 1;
      Metrics.incr t.tallies.m_specials;
      let dups_before = Fec.duplicates decoder in
      (match Fec.feed decoder coded with
      | Some all ->
          trace t "slot_decoded" (fun () ->
              [
                ("session", Json.Int session);
                ("slot", Json.Int slot);
                ("tuples", Json.Int (List.length all));
              ]);
          store_tuples t ~slot ~slot_duration all
      | None -> ());
      let dup_delta = Fec.duplicates decoder - dups_before in
      if dup_delta > 0 then begin
        t.tallies.t_fec_dups <- t.tallies.t_fec_dups + dup_delta;
        Metrics.incr t.tallies.m_suppressed ~by:dup_delta
      end
  | _ -> ()

(* --- receiver messages ------------------------------------------------- *)

let tally_guess t ~group ~slot key =
  let tbl =
    match Hashtbl.find_opt t.guesses (group, slot) with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 8 in
        Hashtbl.replace t.guesses (group, slot) tbl;
        tbl
  in
  if not (Hashtbl.mem tbl key) then begin
    t.tallies.t_guesses <- t.tallies.t_guesses + 1;
    Metrics.incr t.tallies.m_guesses
  end;
  Hashtbl.replace tbl key ()

let interface_keys_enabled t = t.config.interface_keys

(* The stable decrease-key pad for (interface, group, guarded slot),
   created on first use: the scrubber applies it to every forwarded copy
   so the receiver's view is consistent, and validation maps a submitted
   decrease key back through it. *)
let decrease_pad t ~link_id ~group ~guarded_slot ~fresh =
  let key = (link_id, group, guarded_slot) in
  match Hashtbl.find_opt t.dec_pads key with
  | Some p -> p
  | None ->
      let p = fresh () in
      Hashtbl.replace t.dec_pads key p;
      p

let note_pad t ~link_id ~group ~guarded_slot ~pad =
  let key = (link_id, group, guarded_slot) in
  let prev = Option.value (Hashtbl.find_opt t.pads key) ~default:0 in
  Hashtbl.replace t.pads key (Key.xor prev pad)

(* XOR of the pads applied on [link] to groups [from_addr..to_addr] of a
   consecutively addressed session: the correction between a lower
   (interface-specific) cumulative key and the sender's upper key. *)
let cumulative_pad t ~link_id ~from_addr ~to_addr ~slot =
  let acc = ref 0 in
  for addr = from_addr to to_addr do
    match Hashtbl.find_opt t.pads (link_id, addr, slot) with
    | Some p -> acc := Key.xor !acc p
    | None -> ()
  done;
  !acc

(* Candidate upper keys for a submitted (possibly lower) key: the
   cumulative component pad up to the group (top keys), up to the
   previous group (increase keys), and the interface's decrease pad.
   Every in-band field is padded per interface, so there is no identity
   candidate: a key lifted verbatim from another interface maps through
   this interface's (different) pads and fails (paper Section 4.2). *)
let upper_candidates t ~link_id ~group ~slot key =
  if not t.config.interface_keys then [ key ]
  else
    let session_base =
      match Itbl.find_opt t.groups group with
      | Some { session_minimal = Some m; _ } -> m
      | Some _ | None -> group
    in
    let cum_top =
      cumulative_pad t ~link_id ~from_addr:session_base ~to_addr:group ~slot
    in
    let cum_inc =
      if group > session_base then
        cumulative_pad t ~link_id ~from_addr:session_base
          ~to_addr:(group - 1) ~slot
      else 0
    in
    let dec =
      match Hashtbl.find_opt t.dec_pads (link_id, group, slot) with
      | Some p -> [ Key.xor key p ]
      | None -> []
    in
    dec @ [ Key.xor key cum_top; Key.xor key cum_inc ]

let guess_count t ~group ~slot =
  match Hashtbl.find_opt t.guesses (group, slot) with
  | Some tbl -> Hashtbl.length tbl
  | None -> 0

let total_guesses t = t.tallies.t_guesses

let failure_audit t =
  let view s =
    { kf_receiver = s.f_receiver; kf_first = s.f_first; kf_last = s.f_last;
      kf_rejects = s.f_rejects; kf_ended = s.f_ended }
  in
  let open_spans = Hashtbl.fold (fun _ s acc -> view s :: acc) t.failures [] in
  List.sort
    (fun a b ->
      match Float.compare a.kf_first b.kf_first with
      | 0 -> Int.compare a.kf_receiver b.kf_receiver
      | c -> c)
    (List.rev_map view t.closed_failures @ open_spans)

let stats t =
  {
    subscriptions = t.tallies.t_subscriptions;
    keys_accepted = t.tallies.t_keys_accepted;
    keys_rejected = t.tallies.t_keys_rejected;
    acks = t.tallies.t_acks;
    upgrade_graces = t.tallies.t_upgrade_graces;
    grace_admissions = t.tallies.t_grace_admissions;
    suppressed_duplicates = t.tallies.t_dup_joins + t.tallies.t_fec_dups;
    unsubscribes = t.tallies.t_unsubscribes;
    lockouts = t.tallies.t_lockouts;
    special_packets = t.tallies.t_specials;
    distinct_guesses = t.tallies.t_guesses;
  }

(* Every ack is sized at 16-bit keys, whatever width the session's
   keys have. *)
let send_ack t ~receiver ~slot ~pairs =
  let size = Messages.ack_bytes ~width:Key.default_width pairs in
  let pkt =
    Packet.make ~src:t.node.Node.id ~dst:(Packet.Unicast receiver) ~size
      (Messages.Sub_ack { receiver; slot; pairs })
  in
  Node.originate t.node pkt

let handle_subscribe_body ?lineage t ~receiver ~slot ~pairs =
  match iface_toward t receiver with
  | None -> ()
  | Some iface ->
      let time = now t in
      (match lineage with
      | Some lin -> Lineage.hop lin ~time "sigma.subscribe"
      | None -> ());
      t.tallies.t_subscriptions <- t.tallies.t_subscriptions + 1;
      Metrics.incr t.tallies.m_subscriptions;
      Metrics.observe t.tallies.h_subscribe_pairs
        (float_of_int (List.length pairs));
      let accepted =
        List.filter
          (fun (group, key) ->
            match Itbl.find_opt t.groups group with
            | None -> false
            | Some gi -> (
                match Hashtbl.find_opt gi.slots slot with
                | None ->
                    tally_guess t ~group ~slot key;
                    false
                | Some entry ->
                    let candidates =
                      upper_candidates t ~link_id:iface.link.Link.id ~group
                        ~slot key
                    in
                    if
                      List.exists
                        (fun candidate -> List.mem candidate entry.keys)
                        candidates
                    then true
                    else begin
                      tally_guess t ~group ~slot key;
                      false
                    end))
          pairs
      in
      let denied = List.length pairs - List.length accepted in
      t.tallies.t_keys_accepted <-
        t.tallies.t_keys_accepted + List.length accepted;
      Metrics.incr t.tallies.m_keys_accepted ~by:(List.length accepted);
      t.tallies.t_keys_rejected <- t.tallies.t_keys_rejected + denied;
      Metrics.incr t.tallies.m_keys_rejected ~by:denied;
      trace t "subscribe" (fun () ->
          [
            ("receiver", Json.Int receiver);
            ("slot", Json.Int slot);
            ("accepted", Json.Int (List.length accepted));
            ("rejected", Json.Int denied);
          ]);
      (* The subscribe's causal chain ends here: preserve it whole when
         keys were rejected (forensics pins the attack's critical path
         to the first such case), then fold it into the hop table. *)
      (match lineage with
      | Some lin ->
          (if denied > 0 then
             let rejected =
               List.filter (fun pair -> not (List.memq pair accepted)) pairs
             in
             match rejected with
             | (group, key) :: _ ->
                 Lineage.note_case lin ~kind:"key_reject" ~time
                   ~attrs:
                     [
                       ("receiver", Json.Int receiver);
                       ("slot", Json.Int slot);
                       ("group", Json.Int group);
                       ("key", Json.String (Printf.sprintf "0x%04x" key));
                       ("rejected", Json.Int denied);
                     ]
             | [] -> ());
          Lineage.retire lin ~time
      | None -> ());
      (* Key-failure audit: track each receiver's run of rejections as a
         span.  Warn-level start/end events give the forensics report
         exact attack boundaries in sim time. *)
      (if denied > 0 then
         match Hashtbl.find_opt t.failures receiver with
         | Some span ->
             span.f_last <- time;
             span.f_rejects <- span.f_rejects + denied
         | None ->
             Hashtbl.replace t.failures receiver
               { f_receiver = receiver; f_first = time; f_last = time;
                 f_rejects = denied; f_ended = None };
             trace ~level:Tracer.Warn t "key_failure_start" (fun () ->
                 [ ("receiver", Json.Int receiver);
                   ("rejected", Json.Int denied) ])
       else
         match Hashtbl.find_opt t.failures receiver with
         | Some span when accepted <> [] ->
             span.f_ended <- Some time;
             Hashtbl.remove t.failures receiver;
             t.closed_failures <- span :: t.closed_failures;
             trace ~level:Tracer.Warn t "key_failure_end" (fun () ->
                 [ ("receiver", Json.Int receiver);
                   ("start", Json.Float span.f_first);
                   ("rejected", Json.Int span.f_rejects);
                   ("duration", Json.Float (time -. span.f_first)) ])
         | Some _ | None -> ());
      List.iter
        (fun (group, _) ->
          let gi = Itbl.find t.groups group in
          let entry = Hashtbl.find gi.slots slot in
          let grant = grant_of t iface group in
          let slot_end = entry.est_start +. entry.duration in
          let newly_active = not (active_at grant time) in
          grant.granted_until <- Float.max grant.granted_until slot_end;
          grant.by_join <- false;
          grant.join_strikes <- 0;
          if newly_active then begin
            (* Keyed (re)activation of an interface: unconditional
               forwarding long enough for the receiver's first complete
               slots to yield keys (paper Section 3.2.2). *)
            grant.grace_until <-
              Float.max grant.grace_until
                (grant.granted_until
                +. (t.config.upgrade_grace_slots *. entry.duration));
            t.tallies.t_upgrade_graces <- t.tallies.t_upgrade_graces + 1;
            Metrics.incr t.tallies.m_upgrade_graces
          end;
          graft_iface t iface group)
        accepted;
      if accepted <> [] then begin
        t.tallies.t_acks <- t.tallies.t_acks + 1;
        Metrics.incr t.tallies.m_acks;
        send_ack t ~receiver ~slot ~pairs:accepted
      end

let handle_subscribe ?lineage t ~receiver ~slot ~pairs =
  let sp = Prof.span "sigma" in
  handle_subscribe_body ?lineage t ~receiver ~slot ~pairs;
  Prof.finish sp

let handle_unsubscribe t ~receiver ~groups =
  match iface_toward t receiver with
  | None -> ()
  | Some iface ->
      let time = now t in
      List.iter
        (fun group ->
          match Itbl.find_opt iface.grants group with
          | None -> ()
          | Some grant ->
              (* A keyless (session-join) admission that leaves before
                 its grace expires owes the same lockout the sweep
                 charges at expiry; otherwise join/leave cycling inside
                 the grace window is admitted again immediately and the
                 free ride never ends. *)
              if grant.by_join && active_at grant time then begin
                let duration =
                  match Itbl.find_opt t.groups group with
                  | Some gi -> gi.latest_duration
                  | None -> 0.5
                in
                charge_join_lockout t grant ~group ~time ~duration
              end;
              grant.granted_until <- neg_infinity;
              grant.grace_until <- neg_infinity;
              grant.by_join <- false;
              t.tallies.t_unsubscribes <- t.tallies.t_unsubscribes + 1;
              Metrics.incr t.tallies.m_unsubscribes;
              trace t "unsubscribe" (fun () ->
                  [ ("receiver", Json.Int receiver);
                    ("group", Json.Int group) ]);
              prune_iface t iface group)
        groups

let handle_session_join t ~receiver ~group =
  match iface_toward t receiver with
  | None -> ()
  | Some iface ->
      let known_non_minimal =
        match Itbl.find_opt t.groups group with
        | Some gi -> not gi.minimal
        | None -> false
      in
      if not known_non_minimal then begin
        let duration =
          match Itbl.find_opt t.groups group with
          | Some gi -> gi.latest_duration
          | None -> 0.5
        in
        let grant = grant_of t iface group in
        let time = now t in
        if time >= grant.lockout_until && not (active_at grant time) then begin
          grant.grace_until <- time +. (join_grace_slots *. duration);
          grant.by_join <- true;
          t.tallies.t_grace_admissions <- t.tallies.t_grace_admissions + 1;
          Metrics.incr t.tallies.m_grace_admissions;
          trace t "grace_admit" (fun () ->
              [ ("receiver", Json.Int receiver);
                ("group", Json.Int group) ]);
          graft_iface t iface group
        end
        else if active_at grant time then begin
          (* The interface already forwards the group: the join adds
             nothing and is suppressed rather than re-granted. *)
          t.tallies.t_dup_joins <- t.tallies.t_dup_joins + 1;
          Metrics.incr t.tallies.m_suppressed;
          trace t "join_suppressed" (fun () ->
              [ ("receiver", Json.Int receiver);
                ("group", Json.Int group) ])
        end
      end

(* --- expiry sweep ------------------------------------------------------ *)

(* One fold finds the entries whose expiry has passed, usually just the
   oldest, and the earliest expiry left, which becomes [purge_at]; then
   the stale entries go.  A fold writes nothing per entry, where
   [Hashtbl.filter_map_inplace] relinks every entry it keeps. *)
let purge_slots gi time =
  let next = ref infinity in
  let stale =
    Hashtbl.fold
      (fun slot entry acc ->
        let e = expiry entry in
        if e < time then slot :: acc
        else begin
          if e < !next then next := e;
          acc
        end)
      gi.slots []
  in
  List.iter (Hashtbl.remove gi.slots) stale;
  gi.purge_at <- !next

let by_link_then_group (l1, g1, _, _) (l2, g2, _, _) =
  match Int.compare l1 l2 with 0 -> Int.compare g1 g2 | c -> c

let sweep t =
  let time = now t in
  (* Grants that lapsed while grafted, acted on in (link id, group)
     order, so the lockouts' records and the prunes' events do not
     depend on table order. *)
  let lapsed =
    Itbl.fold
      (fun link_id iface acc ->
        Itbl.fold
          (fun group grant acc ->
            if grant.grafted && not (active_at grant time) then
              (link_id, group, iface, grant) :: acc
            else acc)
          iface.grants acc)
      t.ifaces []
  in
  (* Most sweeps find nothing lapsed, and then build no closure. *)
  (match lapsed with
  | [] -> ()
  | _ :: _ ->
      List.iter
        (fun (_, group, iface, grant) ->
          if grant.by_join then begin
            (* Keyless admission expired: pause the minimal group for at
               least one slot (paper Section 3.2.2). *)
            let duration =
              match Itbl.find_opt t.groups group with
              | Some gi -> gi.latest_duration
              | None -> 0.5
            in
            charge_join_lockout t grant ~group ~time ~duration
          end;
          prune_iface t iface group)
        (List.sort by_link_then_group lapsed));
  release_idle_control_channels t;
  (* Purge pad accumulators for long-gone slots. *)
  let purge_pads pads =
    if Hashtbl.length pads > 4096 then begin
      let horizon =
        Hashtbl.fold (fun (_, _, slot) _ acc -> max acc slot) pads 0 - 16
      in
      let stale =
        Hashtbl.fold
          (fun ((_, _, slot) as key) _ acc ->
            if slot < horizon then key :: acc else acc)
          pads []
      in
      List.iter (Hashtbl.remove pads) stale
    end
  in
  purge_pads t.pads;
  purge_pads t.dec_pads;
  (* Purge stale slot entries, visiting only the groups that hold one. *)
  Itbl.iter (fun _ gi -> if gi.purge_at < time then purge_slots gi time)
    t.groups

let on_unicast t pkt =
  match pkt.Packet.payload with
  | Messages.Subscribe { receiver; slot; pairs } ->
      handle_subscribe ~lineage:pkt.Packet.lineage t ~receiver ~slot ~pairs;
      true
  | Messages.Unsubscribe { receiver; groups } ->
      handle_unsubscribe t ~receiver ~groups;
      true
  | Messages.Session_join { receiver; group } ->
      handle_session_join t ~receiver ~group;
      true
  | _ -> false

let iface_active t ~group ~toward =
  match Itbl.find_opt t.node.Node.fib toward with
  | None -> false
  | Some link -> (
      match Itbl.find_opt t.ifaces link.Link.id with
      | None -> false
      | Some iface -> (
          match Itbl.find_opt iface.grants group with
          | None -> false
          | Some grant -> active_at grant (now t)))

let known_groups t = Itbl.fold (fun g _ acc -> g :: acc) t.groups []

let set_scrubber t f = t.scrubber <- Some f

let attach ?(config = default_config) topo node =
  (match node.Node.kind with
  | Node.Edge_router -> ()
  | Node.Host | Node.Core_router | Node.Lan ->
      invalid_arg "Router_agent.attach: node is not an edge router");
  let t =
    {
      topo;
      node;
      config;
      groups = Itbl.create 32;
      ifaces = Itbl.create 16;
      decoders = Hashtbl.create 8;
      guesses = Hashtbl.create 16;
      sessions = Hashtbl.create 8;
      control_held = Hashtbl.create 8;
      live = Itbl.create 16;
      pads = Hashtbl.create 256;
      dec_pads = Hashtbl.create 256;
      scrubber = None;
      tallies = tallies_create ();
      failures = Hashtbl.create 8;
      closed_failures = [];
    }
  in
  (* SIGMA forensics trajectories (no-op unless the run enabled
     sampling); per-router names avoid "#2" suffixes when both edges of
     a dumbbell run an agent.  "sigma.evictions" is event-driven (see
     the lockout sites) and shared, sim time being globally monotone. *)
  if Timeseries.enabled () then begin
    let name suffix = Printf.sprintf "sigma.r%d.%s" node.Node.id suffix in
    Timeseries.sample_rate (name "guesses_per_s") (fun () ->
        float_of_int (total_guesses t));
    Timeseries.sample_rate (name "keys_rejected_per_s") (fun () ->
        float_of_int t.tallies.t_keys_rejected);
    Timeseries.sample_rate (name "grace_admissions_per_s") (fun () ->
        float_of_int t.tallies.t_grace_admissions);
    Timeseries.sample_rate (name "suppressed_joins_per_s") (fun () ->
        float_of_int t.tallies.t_dup_joins);
    Timeseries.sample_rate (name "lockouts_per_s") (fun () ->
        float_of_int t.tallies.t_lockouts)
  end;
  node.Node.intercept <- Some (on_special t);
  node.Node.mcast_filter <- Some (filter t);
  node.Node.on_forward <- Some (on_forward t);
  node.Node.local_unicast <-
    Some (fun pkt -> ignore (on_unicast t pkt));
  ignore
    (Sim.every (Topology.sim topo) ~start:cleanup_period ~period:cleanup_period
       (fun () -> sweep t));
  t
