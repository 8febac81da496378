module Node = Mcc_net.Node
module Prng = Mcc_util.Prng
module Layered = Mcc_delta.Layered
module Metrics = Mcc_obs.Metrics
module Timeseries = Mcc_obs.Timeseries
module Json = Mcc_obs.Json

type config = { flid : Flid.config }

let make_config ~id ~base_group ~layering ~slot_duration ~mode () =
  { flid = Flid.make_config ~id ~base_group ~layering ~slot_duration ~mode () }

(* The control law: EWMA gain, mark-fraction target, multiplicative
   decrease factor, base additive-increase quantum (bps) and the cap on
   its doublings. *)
let alpha = 0.5
let target = 0.3
let md = 0.5
let ai_bps = 10_000.
let max_exp = 6

let group_addr config g = Flid.group_addr config.flid g

(* The sender side is protocol-independent: slot-clocked layered groups
   with precomputed DELTA keys and SIGMA tuple distribution, identical
   to FLID-DS.  Oversub is a receiver-side control law over that wire
   format, so the sender is FLID's. *)

type sender = Flid.sender

let sender_start ?at topo ~node ~prng config =
  Flid.sender_start ?at topo ~node ~prng config.flid

let sender_stats = Flid.sender_stats

(* ----------------------------------------------------------------- *)
(* Receiver                                                          *)
(* ----------------------------------------------------------------- *)

type state = {
  config : config;
  mutable rate : float;  (** the CC rate variable, bps *)
  mutable ewma : float;  (** EWMA of the per-slot mark fraction *)
  mutable exp : int;  (** consecutive uncongested slots (probe exponent) *)
  mutable congestions : int;
  mutable decreases : int;
}

type receiver = (Layered.receiver, state) Slotted.t

let receiver_meter (r : receiver) = r.Slotted.meter
let receiver_level (r : receiver) = r.Slotted.level
let level_series (r : receiver) = r.Slotted.series
let congestion_events (r : receiver) = r.Slotted.state.congestions
let decrease_events (r : receiver) = r.Slotted.state.decreases
let mark_ewma (r : receiver) = r.Slotted.state.ewma
let receiver_stop = Slotted.stop
let receiver_leave = Slotted.leave

(* The control law (per slot): EWMA of the slot's ECN mark fraction,
   with packet loss saturating the congestion signal.  Above the target,
   multiplicative decrease of the rate variable (proportional to the
   excess) and a probe reset; below, additive increase with an
   exponentially growing quantum.  Returns the level the rate variable
   asks for, before key/authorization constraints. *)
let control_update r rec_ ~effective ~any_lost =
  let layering = r.config.flid.Flid.layering in
  let received = ref 0 and marked = ref 0 in
  for g = 1 to effective do
    let lane = rec_.Slotted.lanes.(g - 1) in
    received := !received + lane.count;
    marked := !marked + lane.marked
  done;
  let fraction =
    if any_lost || !received = 0 then 1.0
    else float_of_int !marked /. float_of_int !received
  in
  r.ewma <- ((1. -. alpha) *. r.ewma) +. (alpha *. fraction);
  let congested = r.ewma > target in
  if congested then begin
    r.decreases <- r.decreases + 1;
    Metrics.tick "oversub.decreases";
    r.rate <-
      Float.max layering.Layering.min_rate_bps
        (r.rate *. (1. -. ((r.ewma -. target) *. md)));
    r.exp <- 0
  end
  else begin
    let quantum = ai_bps *. (2. ** float_of_int (min r.exp max_exp)) in
    r.exp <- r.exp + 1;
    r.rate <- Float.min (Layering.top_rate layering) (r.rate +. quantum)
  end;
  (!marked, max 1 (Layering.fair_level layering ~rate_bps:r.rate))

(* Desired level after the per-slot constraints: decreases may span
   several levels at once, increases move one level per slot and only
   when the slot's mask authorized an upgrade to level+1. *)
let constrain_desired (rx : receiver) rec_ ~effective ~desired =
  let r = rx.Slotted.state in
  let layering = r.config.flid.Flid.layering in
  let level = rx.level in
  let desired =
    if desired > level then
      if effective = level && Slotted.mask_bit rec_.Slotted.mask (level + 1)
      then level + 1
      else level
    else desired
  in
  (* Bound probe overshoot to one pending level so a long wait for an
     upgrade authorization cannot bank a multi-level jump. *)
  let cap =
    Layering.cumulative_rate layering
      ~level:(min layering.Layering.groups (desired + 1))
  in
  r.rate <- Float.min r.rate cap;
  desired

let eval_plain (rx : receiver) slot ~effective ~desired =
  let level = rx.Slotted.level in
  if desired < level then begin
    for g = desired + 1 to level do
      Slotted.leave_group rx g;
      rx.active_since.(g - 1) <- max_int
    done;
    Slotted.set_level rx desired
  end
  else if desired > level && effective = level then begin
    let g = level + 1 in
    Slotted.join rx g;
    rx.active_since.(g - 1) <- slot + 2;
    Slotted.set_level rx g
  end

let eval_robust (rx : receiver) slot rec_ delta ~effective ~desired ~any_lost
    ~any_marked ~lost =
  let r = rx.Slotted.state in
  let level = rx.level in
  (* Marked components were scrubbed by a trusted ECN edge, so the
     top keys cannot be reconstructed: marks force the decrease-key
     path even when the EWMA alone would not decrease — the DELTA
     synergy this protocol exists to exercise. *)
  let key_congested = any_lost || any_marked || desired < level in
  let upgrade_to j =
    (not key_congested) && desired > level && j = level + 1
    && Slotted.mask_bit rec_.Slotted.mask j
  in
  let outcome =
    Layered.slot_end delta ~level:effective ~congested:key_congested ~lost
      ~upgrade_to
  in
  let new_level =
    if key_congested then min outcome.Layered.next_level desired
    else if effective = level then outcome.Layered.next_level
    else level
  in
  Slotted.subscribe rx ~slot:(slot + 2)
    (List.filter_map
       (fun (g, k) ->
         if g <= max new_level 1 then Some (Slotted.addr rx g, k) else None)
       outcome.Layered.keys);
  (* The key chain forced the rate below what the EWMA asked for: the
     rate variable follows the attainable level down. *)
  if new_level < level then
    r.rate <-
      Float.min r.rate
        (Layering.cumulative_rate r.config.flid.Flid.layering
           ~level:(max 1 new_level));
  Slotted.resubscribe rx ~slot ~release:true new_level;
  Slotted.knock rx rec_

let eval_slot (rx : receiver) slot rec_ =
  let r = rx.Slotted.state in
  Metrics.tick "oversub.slots";
  let effective = Slotted.effective_level rx slot in
  if effective >= 1 then begin
    (* Loss is missing packets only: a marked packet arrived, so it
       counts toward the mark fraction, not toward loss. *)
    let lost g = g <= effective && Slotted.group_lost rec_ g in
    let any_lost = List.exists lost (List.init effective (fun i -> i + 1)) in
    let marked, rate_level = control_update r rec_ ~effective ~any_lost in
    if any_lost then Metrics.tick "oversub.lossy_slots";
    if any_lost || marked > 0 then begin
      r.congestions <- r.congestions + 1;
      Metrics.tick "oversub.congested_slots"
    end;
    let desired = constrain_desired rx rec_ ~effective ~desired:rate_level in
    match rec_.keys with
    | None -> eval_plain rx slot ~effective ~desired
    | Some delta ->
        eval_robust rx slot rec_ delta ~effective ~desired ~any_lost
          ~any_marked:(marked > 0) ~lost
  end

let receiver_start ?at topo ~host ~prng config =
  (* An honest Oversub receiver draws no randomness; the parameter keeps
     receiver construction uniform across the protocol library. *)
  ignore (prng : Prng.t);
  let names =
    {
      Slotted.prefix = "oversub";
      component = "oversub.receiver";
      event = "level";
      field = "level";
      changes = "oversub.level_changes";
    }
  in
  let rx =
    Slotted.create topo ~host
      (Flid.receiver_proto config.flid ~names ~law:eval_slot ~attrs:(fun r ->
           [ ("ewma", Json.Float r.ewma) ]))
      {
        config;
        rate = config.flid.Flid.layering.Layering.min_rate_bps;
        ewma = 0.;
        exp = 0;
        congestions = 0;
        decreases = 0;
      }
  in
  if Timeseries.enabled () then
    Timeseries.sample_gauge
      (Printf.sprintf "oversub.s%d.h%d.mark_ewma" config.flid.Flid.id
         host.Node.id)
      (fun () -> rx.state.ewma);
  Slotted.start ?at rx (Flid.on_data rx);
  rx
