module F = Mcc_mcast.Flid
module Layering = Mcc_mcast.Layering

module type S = sig
  type config
  type sender
  type receiver

  val name : string
  val heading : string
  val default_slot : F.mode -> float

  val make :
    id:int ->
    base_group:int ->
    layering:Layering.t ->
    slot_duration:float ->
    mode:F.mode ->
    config

  val with_mode : config -> F.mode -> config
  val slot_duration : config -> float
  val group_addr : config -> int -> int

  val sender_start :
    Mcc_net.Topology.t ->
    node:Mcc_net.Node.t ->
    prng:Mcc_util.Prng.t ->
    config ->
    sender

  val receiver_start :
    ?at:float ->
    ?behavior:F.behavior ->
    Mcc_net.Topology.t ->
    host:Mcc_net.Node.t ->
    prng:Mcc_util.Prng.t ->
    config ->
    receiver

  val receiver_meter : receiver -> Mcc_util.Meter.t
  val receiver_leave : receiver -> unit
  val history : (receiver -> F.submission list) option
end

(* Only FLID distinguishes FLID-DL from FLID-DS slots; the other
   protocols keep FLID-DS's 250 ms in either mode. *)
let ds_slot (_ : F.mode) = Defaults.flid_ds_slot

module Flid = struct
  type config = F.config
  type sender = F.sender
  type receiver = F.receiver

  let name = "flid"
  let heading = "FLID-DS (layered, XOR keys)"

  let default_slot = function
    | F.Plain -> Defaults.flid_dl_slot
    | F.Robust -> Defaults.flid_ds_slot

  let make ~id ~base_group ~layering ~slot_duration ~mode =
    F.make_config ~id ~base_group ~layering ~slot_duration ~mode ()

  let with_mode c mode = { c with F.mode }
  let slot_duration c = c.F.slot_duration
  let group_addr = F.group_addr
  let sender_start topo ~node ~prng c = F.sender_start topo ~node ~prng c

  let receiver_start ?at ?behavior topo ~host ~prng c =
    F.receiver_start ?at ?behavior topo ~host ~prng c

  let receiver_meter = F.receiver_meter
  let receiver_leave = F.receiver_leave
  let history = Some F.receiver_history
end

module Rlm = struct
  module R = Mcc_mcast.Rlm_like

  type config = R.config
  type sender = R.sender
  type receiver = R.receiver

  let name = "rlm"
  let heading = "RLM-like (threshold keys)"
  let default_slot = ds_slot

  let make ~id ~base_group ~layering ~slot_duration ~mode =
    R.make_config ~id ~base_group ~layering ~slot_duration ~mode ()

  let with_mode c mode = { c with R.mode }
  let slot_duration c = c.R.slot_duration
  let group_addr = R.group_addr
  let sender_start topo ~node ~prng c = R.sender_start topo ~node ~prng c

  let receiver_start ?at ?behavior:_ topo ~host ~prng c =
    R.receiver_start ?at topo ~host ~prng c

  let receiver_meter = R.receiver_meter
  let receiver_leave = R.receiver_stop
  let history = None
end

(* FLID's config, with the replicated sender and receivers. *)
module Replicated = struct
  module R = Mcc_mcast.Replicated_proto

  type config = F.config
  type sender = R.sender
  type receiver = R.receiver

  let name = "replicated"
  let heading = "Replicated streams"
  let default_slot = ds_slot
  let make = Flid.make
  let with_mode = Flid.with_mode
  let slot_duration = Flid.slot_duration
  let group_addr = F.group_addr
  let sender_start topo ~node ~prng c = R.sender_start topo ~node ~prng c

  let receiver_start ?at ?behavior topo ~host ~prng c =
    R.receiver_start ?at ?behavior topo ~host ~prng c

  let receiver_meter = R.receiver_meter
  let receiver_leave = R.receiver_stop
  let history = None
end

module Oversub = struct
  module O = Mcc_mcast.Oversub

  type config = O.config
  type sender = O.sender
  type receiver = O.receiver

  let name = "oversub"
  let heading = "Oversub (ECN-EWMA layered)"
  let default_slot = ds_slot

  let make ~id ~base_group ~layering ~slot_duration ~mode =
    O.make_config ~id ~base_group ~layering ~slot_duration ~mode ()

  let with_mode c mode = { O.flid = { c.O.flid with F.mode } }
  let slot_duration c = c.O.flid.F.slot_duration
  let group_addr = O.group_addr
  let sender_start topo ~node ~prng c = O.sender_start topo ~node ~prng c

  let receiver_start ?at ?behavior:_ topo ~host ~prng c =
    O.receiver_start ?at topo ~host ~prng c

  let receiver_meter = O.receiver_meter
  let receiver_leave = O.receiver_leave
  let history = None
end
