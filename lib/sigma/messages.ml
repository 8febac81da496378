module Payload = Mcc_net.Payload
module Key = Mcc_delta.Key

type Payload.t +=
  | Subscribe of {
      receiver : int;
      slot : int;
      pairs : (int * Key.t) list;
    }
  | Sub_ack of {
      receiver : int;
      slot : int;
      pairs : (int * Key.t) list;
    }
  | Unsubscribe of { receiver : int; groups : int list }
  | Session_join of { receiver : int; group : int }
  | Special of {
      session : int;
      slot : int;
      slot_duration : float;
      chunk : int;
      total_chunks : int;
      copy : int;
      tuples : Tuple.t list;
    }

let header_bytes = 28

let pair_bytes ~width = 4 + Key.field_bytes ~width

let subscribe_bytes ~width pairs =
  header_bytes + 4 + (List.length pairs * pair_bytes ~width)

let ack_bytes = subscribe_bytes
let unsubscribe_bytes groups = header_bytes + (4 * List.length groups)
let session_join_bytes = header_bytes + 4

let special_bytes ~width tuples =
  header_bytes + 1 (* slot number, l = 8 bits *)
  + List.fold_left (fun acc t -> acc + Tuple.wire_bytes ~width t) 0 tuples
