(* Byte-level oracle for every receiver path of the four slot-clocked
   protocols.  Each case runs a 40 s dumbbell scenario and hashes
   everything a receiver exposes: meter bins, level/group series,
   accessors, the metrics and time-series snapshots and the receivers'
   tracer records.  A change that is meant to keep behaviour must keep
   every digest; one that changes behaviour on purpose re-pins them.

   The matrix is {FLID, RLM ladder, RLM equation, replicated, oversub}
   x {Plain, Robust, Robust sender with Plain receivers} x {ECN off,
   ECN on}.  FLID and replicated add an inflating receiver, FLID a
   colluder, and FLID and oversub an orderly leave at 30 s.

   A second set pins the workload builder ([Build.run]) for every
   protocol under every defence: a generated fat tree with a flash
   crowd and a key-guessing bare attacker, hashed through the
   workload result and the metrics snapshot. *)

module Sim = Mcc_engine.Sim
module Spec = Mcc_core.Spec
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

(* The metrics snapshot minus the "engine.queue_capacity" gauges: those
   measure the scheduler's storage, not the simulated system, so a
   change that only moves the event queue's load keeps every digest.
   Runner drops them from its deterministic records for the same
   reason. *)
let simulated_metrics () =
  Metrics.values_json
    (List.filter
       (fun (name, _) ->
         not (String.starts_with ~prefix:"engine.queue_capacity" name))
       (Metrics.snapshot ()))

let run proto modes ecn =
  Metrics.reset ();
  Timeseries.enable ~dt:0.5 ();
  let trace = Buffer.create 65536 in
  let sink =
    Tracer.install
      ~components:
        [ "flid.receiver"; "rlm.receiver"; "rep.receiver"; "oversub.receiver" ]
      (fun r ->
        Buffer.add_string trace (Json.to_string (Tracer.record_json r));
        Buffer.add_char trace '\n')
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
            let _, sender, receivers =
              Scenario.add_session (module Mcc_core.Protocol.Oversub)
                ?receiver_mode t ~mode ~receivers:honest ()
            in
            (match receivers with
            | [ _; late ] -> leave_at_30 (fun () -> Ovs.receiver_leave late)
            | _ -> assert false);
            fun () ->
              let st = Ovs.sender_stats sender in
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
                receivers
      in
      ignore (Scenario.add_tcp t);
      Scenario.run t ~seconds:40.;
      finish ();
      add_tag b "metrics";
      Buffer.add_string b (Json.to_string (simulated_metrics ()));
      add_tag b "series";
      Buffer.add_string b
        (Json.to_string (Timeseries.snapshot_json (Timeseries.snapshot ())));
      add_tag b "trace";
      Buffer.add_buffer b trace;
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
    "3ebcca238b565f82ee75194ca2b1f7bd";
    "322c28d6b23003ba749e86462a4cc75b";
    "5d4ddb6a3c45aae1b8f1ab2ae649f1e7";
    "24b70bf92a70fd3032ced5ee81571622";
    "1fb4c06ddf6a1300e0b9589bfd09c35f";
    "29b36c879aa5dbf67299718446fbe802";
    "40cc47538b5d3bda3d5347f630579384";
    "9dcbc43e39ae3c3fd534993633735c66";
    "84ec995716beb088c8ca24913d64e772";
    "b61779aea14cdf9d8e4376e2e69749a0";
    "534564c72af224e9222cd7453fc1aaa1";
    "8e35ea4bb380f2da79b6214e2b1c5c63";
    "fac7e30975a55610dd692b818a5db421";
    "e5def30132ea6b41a0832be27ee59179";
    "7dc94316399e05d9aa380e099046c1b3";
    "d0e3ff70e37a3286a4e4a34b16961f8b";
    "28ace7803dc3e23bfd324d29ce4bd2ad";
    "7f835b0af171ecc28d0bd73e3a92bed3";
    "949353b025d005af439b897e2950586f";
    "3ad06359f1076bd9f539c885b594042a";
    "304f162e2a6da2f80110159a53319db6";
    "3979efb5efdba3d3d2d5ca4a42dde064";
    "963bcbde10522fbd438efbdec7a76dfd";
    "a1c04ae487214152af84f72d66a8f3b8";
    "e1201f2a57f10b3e7d854af15e959e98";
    "06e35f3a87f8b8ba803c88dae0cb33b0";
    "f24ec75dba2fcf0908b1b74e9f419a83";
    "eb52c46b8193b2aa3e9f287a9562ed0c";
    "9e9749edd9728c26e02727e633bdf86c";
    "e9740746f2a969c522b5befef7d9f8dc";
  ]

(* --- Workload builder ------------------------------------------------ *)

let workload_run protocol defence =
  Metrics.reset ();
  Fun.protect ~finally:Metrics.reset (fun () ->
      let r =
        Mcc_workload.Build.run
          {
            Spec.seed = 71;
            duration = 40.;
            topology = Spec.Fat_tree { k = 4; core_rate_bps = 2_000_000. };
            protocol;
            defence;
            receivers = 4;
            churn =
              Spec.Flash_crowd { at = 10.; arrivals = 3; leave_after = 15. };
            traffic = [];
            attack = Some (Spec.Key_guessing { budget_per_slot = 4 });
            attack_at = 15.;
          }
      in
      let b = Buffer.create 4096 in
      add_tag b "result";
      List.iter (add_int b)
        [
          r.Mcc_core.Experiments.w_nodes;
          r.w_links;
          r.w_receivers;
          r.w_drops;
          r.w_marks;
          r.w_keys_rejected;
          r.w_lockouts;
        ];
      List.iter (add_float b)
        [
          r.w_mean_goodput_kbps;
          r.w_min_goodput_kbps;
          r.w_max_goodput_kbps;
          r.w_cross_kbps;
          r.w_attacker_kbps;
        ];
      add_tag b "metrics";
      Buffer.add_string b (Json.to_string (simulated_metrics ()));
      Digest.to_hex (Digest.string (Buffer.contents b)))

let workload_cases =
  List.concat_map
    (fun protocol ->
      List.map
        (fun defence -> (protocol, defence))
        [ Spec.Undefended; Spec.Delta_only; Spec.Delta_sigma;
          Spec.Delta_sigma_ecn ])
    [ Spec.Flid_ds; Spec.Rlm_threshold; Spec.Replicated; Spec.Oversub ]

let workload_case_name (protocol, defence) =
  Printf.sprintf "golden workload %s %s" (Spec.protocol_str protocol)
    (Spec.defence_str defence)

(* One digest per entry of [workload_cases], in order. *)
let workload_expected =
  [
    "93c0564b7413d14fa9734e26efeb06a8";
    "dc5cb39af0976bedd3487094c2e54836";
    "81ca5d3937abd77a9bdab4c068fbbf88";
    "ff51dbcadde082b355c3a6194934b64f";
    "0154e07c463da0a8c5c3fdc944dffbc8";
    "1e5c7c13d62f546fc8f6f8b246f23c10";
    "51d500d2db8286228977849646b85672";
    "51d500d2db8286228977849646b85672";
    "16148ade8ab4dd50f0e0d487a1199493";
    "e5f011a732a3faa4ec59595fd4b173cb";
    "a7ad018bff4f3e2eabfc3203a4119c52";
    "ae4c44523113ffca54e3623f43326d0c";
    "976a36e19f9caa9ea876b47c36c0cd8a";
    "8215043564e88ddddfce7f7e41a54449";
    "86e9b150fb032c9edf3015d8fc09b44c";
    "f38c99511e08f30e7a7d76f26171180e";
  ]

let suite =
  ( "golden",
    List.mapi
      (fun i ((proto, modes, ecn) as case) ->
        Alcotest.test_case (case_name case) `Quick (fun () ->
            Alcotest.(check string)
              (case_name case) (List.nth expected i) (run proto modes ecn)))
      cases
    @ List.mapi
        (fun i ((protocol, defence) as case) ->
          Alcotest.test_case (workload_case_name case) `Quick (fun () ->
              Alcotest.(check string)
                (workload_case_name case)
                (List.nth workload_expected i)
                (workload_run protocol defence)))
        workload_cases )
