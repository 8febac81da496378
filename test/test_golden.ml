(* Byte-level oracle for every receiver path of the four slot-clocked
   protocols.  Each case runs a 40 s dumbbell scenario and hashes
   everything a receiver exposes: meter bins, level/group series,
   accessors, the metrics and time-series snapshots and the receivers'
   tracer records.  A change that is meant to keep behaviour must keep
   every digest; one that changes behaviour on purpose re-pins them.

   The matrix is {FLID, RLM ladder, RLM equation, replicated, oversub}
   x {Plain, Robust, Robust sender with Plain receivers} x {ECN off,
   ECN on}.  FLID and replicated add an inflating receiver, FLID a
   colluder, and FLID and oversub an orderly leave at 30 s. *)

module Sim = Mcc_engine.Sim
module Scenario = Mcc_core.Scenario
module Flid = Mcc_mcast.Flid
module Rlm = Mcc_mcast.Rlm_like
module Rep = Mcc_mcast.Replicated_proto
module Ovs = Mcc_mcast.Oversub
module Meter = Mcc_util.Meter
module Series = Mcc_util.Series
module Metrics = Mcc_obs.Metrics
module Timeseries = Mcc_obs.Timeseries
module Tracer = Mcc_obs.Tracer
module Ring = Mcc_obs.Ring
module Json = Mcc_obs.Json

type proto = P_flid | P_rlm of Rlm.policy | P_rep | P_ovs
type modes = Plain | Robust | Robust_plain_receivers

let proto_name = function
  | P_flid -> "flid"
  | P_rlm Rlm.Ladder -> "rlm-ladder"
  | P_rlm Rlm.Equation -> "rlm-equation"
  | P_rep -> "replicated"
  | P_ovs -> "oversub"

let modes_name = function
  | Plain -> "plain"
  | Robust -> "robust"
  | Robust_plain_receivers -> "robust-plain-rx"

(* Exact renderings: hex floats, so a last-bit change alters the hash. *)
let add_float b x = Buffer.add_string b (Printf.sprintf "%h;" x)
let add_int b i = Buffer.add_string b (Printf.sprintf "%d;" i)
let add_tag b s = Buffer.add_string b (s ^ "=")

let add_pairs b l =
  List.iter
    (fun (x, y) ->
      add_float b x;
      add_float b y)
    l;
  Buffer.add_char b '\n'

let add_meter b m =
  add_tag b "meter";
  add_int b (Meter.total_bytes m);
  add_pairs b (Meter.throughput_kbps m)

let add_series b s =
  add_tag b "series";
  add_pairs b (Series.to_list s)

let run proto modes ecn =
  Metrics.reset ();
  Timeseries.enable ~dt:0.5 ();
  let ring, sink =
    Tracer.ring ~capacity:(1 lsl 20)
      ~components:
        [ "flid.receiver"; "rlm.receiver"; "rep.receiver"; "oversub.receiver" ]
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Tracer.remove sink;
      Timeseries.disable ();
      Metrics.reset ())
    (fun () ->
      let b = Buffer.create 65536 in
      let t = Scenario.create ~ecn ~bottleneck_rate_bps:600_000. () in
      let mode, receiver_mode =
        match modes with
        | Plain -> (Flid.Plain, None)
        | Robust -> (Flid.Robust, None)
        | Robust_plain_receivers -> (Flid.Robust, Some Flid.Plain)
      in
      let honest = [ Scenario.receiver (); Scenario.receiver ~at:7. () ] in
      let inflating =
        Scenario.receiver ~behavior:(Flid.Inflate_after 15.) ()
      in
      let leave_at_30 f =
        Sim.post (Scenario.sim t) ~at:30. (fun () -> f ())
      in
      (* Each arm returns the closure that hashes the session's receivers
         and sender once the run is over. *)
      let finish =
        match proto with
        | P_flid ->
            let s =
              Scenario.add_multicast ?receiver_mode t ~mode
                ~receivers:(honest @ [ inflating; Scenario.receiver () ])
                ()
            in
            (match s.Scenario.receivers with
            | [ a; late; _; colluder ] ->
                Flid.set_colluder colluder ~source:a;
                leave_at_30 (fun () -> Flid.receiver_leave late)
            | _ -> assert false);
            fun () ->
              let st = Flid.sender_stats s.Scenario.sender in
              add_tag b "sender";
              List.iter (add_int b)
                [
                  st.Flid.slots;
                  st.Flid.data_bits;
                  st.Flid.delta_bits;
                  st.Flid.sigma_payload_bits;
                  st.Flid.sigma_header_bits;
                  st.Flid.sigma_packets;
                ];
              Array.iter (add_int b) st.Flid.authorizations;
              add_float b st.Flid.fec_expansion;
              List.iter
                (fun r ->
                  add_meter b (Flid.receiver_meter r);
                  add_series b (Flid.level_series r);
                  add_tag b "acc";
                  add_int b (Flid.receiver_level r);
                  add_int b (Flid.congestion_events r);
                  List.iter
                    (fun { Flid.sub_slot; sub_pairs } ->
                      add_int b sub_slot;
                      List.iter
                        (fun (g, k) ->
                          add_int b g;
                          add_int b k)
                        sub_pairs)
                    (Flid.receiver_history r))
                s.Scenario.receivers
        | P_rlm policy ->
            let s =
              Scenario.add_rlm ~policy ?receiver_mode t ~mode ~receivers:honest
                ()
            in
            fun () ->
              add_tag b "sender";
              add_int b (Rlm.share_overhead_bits s.Scenario.rlm_sender);
              add_int b (Rlm.data_bits s.Scenario.rlm_sender);
              List.iter
                (fun r ->
                  add_meter b (Rlm.receiver_meter r);
                  add_tag b "acc";
                  add_int b (Rlm.receiver_level r);
                  add_float b
                    (Option.value (Rlm.receiver_rtt r) ~default:(-1.));
                  add_float b (Rlm.receiver_loss_rate r))
                s.Scenario.rlm_receivers
        | P_rep ->
            let s =
              Scenario.add_replicated ?receiver_mode t ~mode
                ~receivers:(honest @ [ inflating ])
                ()
            in
            fun () ->
              List.iter
                (fun r ->
                  add_meter b (Rep.receiver_meter r);
                  add_series b (Rep.group_series r);
                  add_tag b "acc";
                  add_int b (Rep.receiver_group r))
                s.Scenario.rep_receivers
        | P_ovs ->
            let s =
              Scenario.add_oversub ?receiver_mode t ~mode ~receivers:honest ()
            in
            (match s.Scenario.ovs_receivers with
            | [ _; late ] -> leave_at_30 (fun () -> Ovs.receiver_leave late)
            | _ -> assert false);
            fun () ->
              let st = Ovs.sender_stats s.Scenario.ovs_sender in
              add_tag b "sender";
              add_int b st.Flid.slots;
              add_int b st.Flid.sigma_packets;
              List.iter
                (fun r ->
                  add_meter b (Ovs.receiver_meter r);
                  add_series b (Ovs.level_series r);
                  add_tag b "acc";
                  add_int b (Ovs.receiver_level r);
                  add_float b (Ovs.mark_ewma r);
                  add_int b (Ovs.congestion_events r);
                  add_int b (Ovs.decrease_events r))
                s.Scenario.ovs_receivers
      in
      ignore (Scenario.add_tcp t);
      Scenario.run t ~seconds:40.;
      finish ();
      add_tag b "metrics";
      Buffer.add_string b (Json.to_string (Metrics.snapshot_json ()));
      add_tag b "series";
      Buffer.add_string b
        (Json.to_string (Timeseries.snapshot_json (Timeseries.snapshot ())));
      add_tag b "trace";
      Ring.iter
        (fun r ->
          Buffer.add_string b (Json.to_string (Tracer.record_json r));
          Buffer.add_char b '\n')
        ring;
      Digest.to_hex (Digest.string (Buffer.contents b)))

let cases =
  List.concat_map
    (fun proto ->
      List.concat_map
        (fun modes -> List.map (fun ecn -> (proto, modes, ecn)) [ false; true ])
        [ Plain; Robust; Robust_plain_receivers ])
    [ P_flid; P_rlm Rlm.Ladder; P_rlm Rlm.Equation; P_rep; P_ovs ]

let case_name (proto, modes, ecn) =
  Printf.sprintf "golden %s %s ecn-%s" (proto_name proto) (modes_name modes)
    (if ecn then "on" else "off")

(* One digest per entry of [cases], in order. *)
let expected =
  [
    "275600756632365e18ad8f3029cfbfd9";
    "795cc261b4563ac0ff5bd7f0f59cc612";
    "62a09da004b266f92b88efc8fa121277";
    "b0b40bcb2a91b95b2a6e6a94d1aef7c6";
    "b95ff98ed5231c131989aa2347d54b0b";
    "66b12d0e938b6e7675a13183cb41b630";
    "dc899668c7e4293876dd09a88a1199c2";
    "41f641e11465c9f38ed6345610a09c89";
    "0d0c7154149c94e39911220195d9ea6d";
    "c9c406c65654b80ac873d4af80347b31";
    "e0d3491acb113648cc8f8309be65b67c";
    "ad97b5a2719a8b213a7d3294f89abf94";
    "b2b86cf80eb92b75a0e307d5db409cbb";
    "8ef1e09c39a13eabfb3912a469592cc2";
    "b8b5408b0eb8c7af6edebe751b5dcb44";
    "21a1332b00f9b6f6efb9f868e959ad00";
    "d906b62bfc98d898aff7b04a9e795872";
    "aeb9d25e8b1afd5e639bc1891211aa1e";
    "ea945e8bb4d52eaac650c3557b67cd84";
    "04eb2da60d27e5baabb91788bd1b2de5";
    "f151895497b9d34b1b6f1dfcfe182a9d";
    "773ce5e963247841a1886ed9ef8e25d7";
    "115258a4b21aecfcb961f4a0f60cf319";
    "e8e96dec92d5fc9685e1b586bef39eb9";
    "ab5634a009f64cc80a3254ddb6a67735";
    "b9f6c04d9af5ac439aa49ca85df2f829";
    "fca9b0ae20a5a333e130a77d65f640f4";
    "26a8e0bc494a5ffc773e15ca797a028f";
    "113b66cbb2526c9e1a02f94c270b2f5c";
    "dcaf82a0407cb523bb67413b5dca6f4c";
  ]

let suite =
  ( "golden",
    List.mapi
      (fun i ((proto, modes, ecn) as case) ->
        Alcotest.test_case (case_name case) `Quick (fun () ->
            Alcotest.(check string)
              (case_name case) (List.nth expected i) (run proto modes ecn)))
      cases )
