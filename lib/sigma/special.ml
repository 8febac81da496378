module Sim = Mcc_engine.Sim
module Node = Mcc_net.Node
module Packet = Mcc_net.Packet

type stats = {
  packets : int;
  payload_bits : int;
  header_bits : int;
  expansion : float;
}

let distribute ?(scheme = Fec.Repetition 2) topo ~sender ~session ~via_group
    ~width ~slot ~slot_duration ~tuples () =
  let sim = Mcc_net.Topology.sim topo in
  let coded = Fec.encode ~width scheme ~max_per_packet:16 tuples in
  (* Interleave copies: all chunks' copy 0, then copy 1, ... *)
  let sorted =
    List.stable_sort
      (fun (a : Fec.coded) b ->
        match Int.compare a.copy b.copy with
        | 0 -> Int.compare a.chunk b.chunk
        | c -> c)
      coded
  in
  let n = List.length sorted in
  (* Every special of the slot leaves within the first half of the slot
     it is sent in.  The router agent relies on it: with FIFO links, no
     special of this slot reaches it after one of the next slot, so it
     keeps a decoder for the newest slot only. *)
  let spacing = slot_duration /. 2. /. float_of_int (max 1 n) in
  List.iteri
    (fun i (c : Fec.coded) ->
      let payload =
        Messages.Special
          {
            session;
            slot;
            slot_duration;
            chunk = c.Fec.chunk;
            total_chunks = c.Fec.total_chunks;
            copy = c.Fec.copy;
            tuples = (if c.Fec.chunk = c.Fec.total_chunks then c.Fec.recovery
                      else c.Fec.tuples);
          }
      in
      let pkt =
        Packet.make ~router_alert:true ~src:sender.Node.id
          ~dst:(Packet.Multicast via_group) ~size:c.Fec.wire_bytes payload
      in
      Sim.post_after sim ~delay:(float_of_int i *. spacing) (fun () ->
             Node.originate sender pkt))
    sorted;
  let total_chunks =
    match coded with [] -> 0 | (c : Fec.coded) :: _ -> c.Fec.total_chunks
  in
  let header_bits = n * Messages.header_bytes * 8 in
  let payload_bits =
    List.fold_left (fun acc (c : Fec.coded) -> acc + (8 * c.Fec.wire_bytes)) 0 coded
    - header_bits
  in
  {
    packets = n;
    payload_bits;
    header_bits;
    expansion = Fec.expansion scheme ~total_chunks;
  }
