module Prng = Mcc_util.Prng
module Key = Mcc_delta.Key
module Layered = Mcc_delta.Layered
module Replicated = Mcc_delta.Replicated
module Field = Mcc_delta.Field
module Ecn = Mcc_delta.Ecn

let n = 5
let width = 16

(* Simulate one slot: [counts.(g-1)] packets per group, delivering each
   packet to the receiver unless [drop g seq] says to lose it. *)
let run_slot ?(upgrades = Array.make n false) ~counts ~drop () =
  let prng = Prng.create 123 in
  let sender = Layered.sender_create ~prng ~width ~groups:n ~upgrades in
  let receiver = Layered.receiver_create ~groups:n in
  for g = 1 to n do
    for i = 0 to counts.(g - 1) - 1 do
      let last = i = counts.(g - 1) - 1 in
      let component = Layered.next_component sender ~group:g ~last in
      let decrease = Layered.decrease_field sender ~group:g in
      if not (drop g i) then
        Layered.on_packet receiver ~group:g ~component ~decrease
    done
  done;
  (Layered.sender_keys sender, receiver)

let counts_default = [| 3; 4; 2; 5; 1 |]

let test_top_keys_no_loss () =
  let keys, receiver =
    run_slot ~counts:counts_default ~drop:(fun _ _ -> false) ()
  in
  let outcome =
    Layered.slot_end receiver ~level:n ~congested:false
      ~lost:(fun _ -> false)
      ~upgrade_to:(fun _ -> false)
  in
  Alcotest.(check int) "stays at level" n outcome.Layered.next_level;
  List.iter
    (fun (g, key) ->
      Alcotest.(check int)
        (Printf.sprintf "top key for group %d" g)
        keys.Layered.top.(g - 1) key)
    outcome.Layered.keys

let test_loss_breaks_top_key () =
  let keys, receiver =
    run_slot ~counts:counts_default ~drop:(fun g i -> g = 2 && i = 1) ()
  in
  (* The receiver knows it is congested; pretend it lies and computes the
     uncongested keys anyway: groups >= 2 must all be wrong. *)
  let outcome =
    Layered.slot_end receiver ~level:n ~congested:false
      ~lost:(fun _ -> false)
      ~upgrade_to:(fun _ -> false)
  in
  List.iter
    (fun (g, key) ->
      if g >= 2 then
        Alcotest.(check bool)
          (Printf.sprintf "group %d key broken" g)
          true
          (key <> keys.Layered.top.(g - 1))
      else
        Alcotest.(check int) "group 1 unaffected" keys.Layered.top.(0) key)
    outcome.Layered.keys

let test_decrease_keys_on_congestion () =
  let keys, receiver =
    run_slot ~counts:counts_default ~drop:(fun g i -> g = 4 && i = 2) ()
  in
  let outcome =
    Layered.slot_end receiver ~level:4 ~congested:true
      ~lost:(fun g -> g = 4)
      ~upgrade_to:(fun _ -> false)
  in
  Alcotest.(check int) "drops one level" 3 outcome.Layered.next_level;
  List.iter
    (fun (g, key) ->
      Alcotest.(check int)
        (Printf.sprintf "decrease key for group %d" g)
        keys.Layered.decrease.(g - 1) key)
    outcome.Layered.keys;
  Alcotest.(check int) "three keys" 3 (List.length outcome.Layered.keys)

let test_increase_key () =
  let upgrades = Array.make n false in
  upgrades.(3) <- true;
  (* upgrade to group 4 authorized *)
  let keys, receiver =
    run_slot ~upgrades ~counts:counts_default ~drop:(fun _ _ -> false) ()
  in
  let outcome =
    Layered.slot_end receiver ~level:3 ~congested:false
      ~lost:(fun _ -> false)
      ~upgrade_to:(fun g -> g = 4)
  in
  Alcotest.(check int) "upgrades" 4 outcome.Layered.next_level;
  let g4_key = List.assoc 4 outcome.Layered.keys in
  (match keys.Layered.increase.(3) with
  | Some iota -> Alcotest.(check int) "increase key matches" iota g4_key
  | None -> Alcotest.fail "sender should have an increase key");
  Alcotest.(check bool) "increase key accepted by keystore" true
    (List.mem g4_key (Layered.valid_keys keys ~group:4))

let test_contradiction_resolution () =
  (* Loss confined to group g while an upgrade to g is authorized: the
     receiver keeps g using the increase key (paper Section 3.1.1). *)
  let upgrades = Array.make n false in
  upgrades.(2) <- true;
  (* upgrade to group 3 *)
  let keys, receiver =
    run_slot ~upgrades ~counts:counts_default ~drop:(fun g i -> g = 3 && i = 0) ()
  in
  let outcome =
    Layered.slot_end receiver ~level:3 ~congested:true
      ~lost:(fun g -> g = 3)
      ~upgrade_to:(fun g -> g = 3)
  in
  Alcotest.(check int) "keeps level" 3 outcome.Layered.next_level;
  let g3_key = List.assoc 3 outcome.Layered.keys in
  Alcotest.(check bool) "uses the increase key" true
    (List.mem g3_key (Layered.valid_keys keys ~group:3))

let test_total_group_loss_limits_prefix () =
  (* Group 3 loses everything, taking decrease key delta_2 (carried in
     group 3's decrease fields) with it: the reachable prefix ends at
     group 1, forcing the receiver down more than one level — exactly
     the behaviour the paper describes for a fully lost group. *)
  let _, receiver =
    run_slot ~counts:counts_default ~drop:(fun g _ -> g = 3) ()
  in
  let outcome =
    Layered.slot_end receiver ~level:5 ~congested:true
      ~lost:(fun g -> g = 3)
      ~upgrade_to:(fun _ -> false)
  in
  Alcotest.(check int) "forced below g-1" 1 outcome.Layered.next_level

let test_minimal_group_congested () =
  let _, receiver =
    run_slot ~counts:counts_default ~drop:(fun g i -> g = 1 && i = 0) ()
  in
  let outcome =
    Layered.slot_end receiver ~level:1 ~congested:true
      ~lost:(fun g -> g = 1)
      ~upgrade_to:(fun _ -> false)
  in
  Alcotest.(check int) "leaves session" 0 outcome.Layered.next_level;
  Alcotest.(check int) "no keys" 0 (List.length outcome.Layered.keys)

let test_single_packet_group () =
  (* A group transmitting exactly one packet: the single component must
     close the accumulator correctly. *)
  let keys, receiver =
    run_slot ~counts:[| 1; 1; 1; 1; 1 |] ~drop:(fun _ _ -> false) ()
  in
  let outcome =
    Layered.slot_end receiver ~level:n ~congested:false
      ~lost:(fun _ -> false)
      ~upgrade_to:(fun _ -> false)
  in
  List.iter
    (fun (g, key) ->
      Alcotest.(check int) "top key" keys.Layered.top.(g - 1) key)
    outcome.Layered.keys

let test_sender_precompute_stable () =
  (* Keys read before emitting any packet equal the keys implied by the
     emitted components: the precomputation property (paper Fig. 4). *)
  let prng = Prng.create 9 in
  let sender =
    Layered.sender_create ~prng ~width ~groups:3 ~upgrades:(Array.make 3 false)
  in
  let before = (Layered.sender_keys sender).Layered.top.(2) in
  let xor = ref 0 in
  for g = 1 to 3 do
    for i = 0 to 3 do
      xor := !xor lxor Layered.next_component sender ~group:g ~last:(i = 3)
    done
  done;
  Alcotest.(check int) "lambda_3 = XOR of all components" before !xor

let test_closed_slot_raises () =
  let prng = Prng.create 10 in
  let sender =
    Layered.sender_create ~prng ~width ~groups:2 ~upgrades:(Array.make 2 false)
  in
  ignore (Layered.next_component sender ~group:1 ~last:true);
  Alcotest.(check bool) "second close raises" true
    (try
       ignore (Layered.next_component sender ~group:1 ~last:false);
       false
     with Invalid_argument _ -> true)

(* Property: for random loss patterns, the uncongested reconstruction of
   lambda_g is correct iff no packet of groups 1..g was lost. *)
let prop_top_key_iff_no_loss =
  QCheck.Test.make ~name:"top key reconstructible iff no loss below" ~count:200
    QCheck.(pair small_int (list_of_size (Gen.return 12) bool))
    (fun (seed, drops) ->
      let drops = Array.of_list drops in
      let counts = [| 3; 2; 3; 2; 2 |] in
      let offsets = [| 0; 3; 5; 8; 10 |] in
      let drop g i =
        let idx = offsets.(g - 1) + i in
        idx < Array.length drops && drops.(idx)
      in
      let prng = Prng.create (seed + 1) in
      (* 48-bit keys: an accidental XOR collision (which would make a
         lossy reconstruction "succeed") becomes a 2^-48 event. *)
      let sender =
        Layered.sender_create ~prng ~width:48 ~groups:n
          ~upgrades:(Array.make n false)
      in
      let receiver = Layered.receiver_create ~groups:n in
      for g = 1 to n do
        for i = 0 to counts.(g - 1) - 1 do
          let last = i = counts.(g - 1) - 1 in
          let component = Layered.next_component sender ~group:g ~last in
          let decrease = Layered.decrease_field sender ~group:g in
          if not (drop g i) then
            Layered.on_packet receiver ~group:g ~component ~decrease
        done
      done;
      let keys = Layered.sender_keys sender in
      let outcome =
        Layered.slot_end receiver ~level:n ~congested:false
          ~lost:(fun _ -> false)
          ~upgrade_to:(fun _ -> false)
      in
      List.for_all
        (fun (g, key) ->
          let any_loss =
            List.exists
              (fun g' ->
                List.exists (fun i -> drop g' i) (List.init counts.(g' - 1) Fun.id))
              (List.init g (fun i -> i + 1))
          in
          if any_loss then key <> keys.Layered.top.(g - 1)
          else key = keys.Layered.top.(g - 1))
        outcome.Layered.keys)

(* --- replicated --------------------------------------------------------- *)

let run_replicated ?(upgrades = Array.make n false) ~counts ~drop () =
  let prng = Prng.create 77 in
  let sender = Replicated.sender_create ~prng ~width ~groups:n ~upgrades in
  let receiver = Layered.receiver_create ~groups:n in
  for g = 1 to n do
    for i = 0 to counts.(g - 1) - 1 do
      let last = i = counts.(g - 1) - 1 in
      let component = Layered.next_component sender ~group:g ~last in
      let decrease = Layered.decrease_field sender ~group:g in
      if not (drop g i) then
        Layered.on_packet receiver ~group:g ~component ~decrease
    done
  done;
  (Layered.sender_keys sender, receiver)

let test_replicated_top () =
  let keys, receiver =
    run_replicated ~counts:counts_default ~drop:(fun _ _ -> false) ()
  in
  let outcome =
    Replicated.slot_end receiver ~group:3 ~congested:false
      ~upgrade_to:(fun _ -> false)
  in
  Alcotest.(check int) "stays" 3 outcome.Replicated.next_group;
  (match outcome.Replicated.key with
  | Some k -> Alcotest.(check int) "top key" keys.Layered.top.(2) k
  | None -> Alcotest.fail "expected a key")

let test_replicated_independence () =
  (* Loss in group 2 must not affect a receiver of group 3: per-group
     keys are independent in replicated sessions. *)
  let keys, receiver =
    run_replicated ~counts:counts_default ~drop:(fun g _ -> g = 2) ()
  in
  let outcome =
    Replicated.slot_end receiver ~group:3 ~congested:false
      ~upgrade_to:(fun _ -> false)
  in
  match outcome.Replicated.key with
  | Some k -> Alcotest.(check int) "unaffected" keys.Layered.top.(2) k
  | None -> Alcotest.fail "expected a key"

let test_replicated_decrease () =
  let keys, receiver =
    run_replicated ~counts:counts_default ~drop:(fun g i -> g = 3 && i = 1) ()
  in
  let outcome =
    Replicated.slot_end receiver ~group:3 ~congested:true
      ~upgrade_to:(fun _ -> false)
  in
  Alcotest.(check int) "switches down" 2 outcome.Replicated.next_group;
  match outcome.Replicated.key with
  | Some k ->
      Alcotest.(check int) "decrease key of group 2" keys.Layered.decrease.(1) k;
      Alcotest.(check bool) "valid at router" true
        (List.mem k (Layered.valid_keys keys ~group:2))
  | None -> Alcotest.fail "expected a key"

let test_replicated_upgrade () =
  let upgrades = Array.make n false in
  upgrades.(3) <- true;
  let keys, receiver =
    run_replicated ~upgrades ~counts:counts_default ~drop:(fun _ _ -> false) ()
  in
  let outcome =
    Replicated.slot_end receiver ~group:3 ~congested:false
      ~upgrade_to:(fun g -> g = 4)
  in
  Alcotest.(check int) "switches up" 4 outcome.Replicated.next_group;
  match outcome.Replicated.key with
  | Some k ->
      Alcotest.(check bool) "increase key valid for group 4" true
        (List.mem k (Layered.valid_keys keys ~group:4))
  | None -> Alcotest.fail "expected a key"

let test_replicated_minimal_congested () =
  let _, receiver =
    run_replicated ~counts:counts_default ~drop:(fun g i -> g = 1 && i = 0) ()
  in
  let outcome =
    Replicated.slot_end receiver ~group:1 ~congested:true
      ~upgrade_to:(fun _ -> false)
  in
  Alcotest.(check int) "leaves" 0 outcome.Replicated.next_group

(* Property: replicated keys are per-group independent — loss in group j
   breaks exactly group j's top key and no other. *)
let prop_replicated_independence =
  QCheck.Test.make ~name:"replicated keys independent across groups" ~count:150
    QCheck.(pair small_int (int_range 1 5))
    (fun (seed, lossy_group) ->
      let prng = Prng.create (seed + 11) in
      let sender =
        Replicated.sender_create ~prng ~width:48 ~groups:n
          ~upgrades:(Array.make n false)
      in
      let receiver = Layered.receiver_create ~groups:n in
      for g = 1 to n do
        for i = 0 to 2 do
          let last = i = 2 in
          let component = Layered.next_component sender ~group:g ~last in
          if not (g = lossy_group && i = 1) then
            Layered.on_packet receiver ~group:g ~component ~decrease:None
        done
      done;
      let keys = Layered.sender_keys sender in
      List.for_all
        (fun g ->
          let outcome =
            Replicated.slot_end receiver ~group:g ~congested:false
              ~upgrade_to:(fun _ -> false)
          in
          match outcome.Replicated.key with
          | Some k ->
              if g = lossy_group then k <> keys.Layered.top.(g - 1)
              else k = keys.Layered.top.(g - 1)
          | None -> false)
        (List.init n (fun i -> i + 1)))

(* Property: Figs. 4 and 5 share one key machine.  From equal seeds the
   layered and replicated senders draw the same decrease nonces and the
   same component stream; the layered top key of g is the XOR of the
   replicated top keys of groups 1..g (Eq. 3 against Eq. 6); and each
   one's increase key for g is its own top key for g-1, exactly where an
   upgrade to g is authorized. *)
let prop_instantiations_share_draws =
  QCheck.Test.make ~name:"layered and replicated keys share one draw"
    ~count:200
    QCheck.(
      quad small_int (int_range 1 8)
        (list_of_size (Gen.return 8) bool)
        (small_list small_nat))
    (fun (seed, groups, ups, requests) ->
      let upgrades = Array.sub (Array.of_list ups) 0 groups in
      let create f =
        f ~prng:(Prng.create seed) ~width ~groups ~upgrades
      in
      let layered = create Layered.sender_create in
      let replicated = create Replicated.sender_create in
      let lk = Layered.sender_keys layered in
      let rk = Layered.sender_keys replicated in
      (* The requests in order, then each group's last packet. *)
      let requests =
        List.map (fun r -> (1 + (r mod groups), false)) requests
        @ List.init groups (fun i -> (groups - i, true))
      in
      let same_stream =
        List.for_all
          (fun (group, last) ->
            Layered.decrease_field layered ~group
            = Layered.decrease_field replicated ~group
            && Layered.next_component layered ~group ~last
               = Layered.next_component replicated ~group ~last)
          requests
      in
      let gs = List.init groups (fun i -> i + 1) in
      let prefix_xor g =
        List.fold_left
          (fun acc j -> Key.xor acc rk.Layered.top.(j - 1))
          0
          (List.init g (fun i -> i + 1))
      in
      let increase_is_lower_top (k : Layered.keys) =
        List.for_all
          (fun g ->
            k.increase.(g - 1)
            = if g >= 2 && upgrades.(g - 1) then Some k.top.(g - 2) else None)
          gs
      in
      lk.decrease = rk.decrease && same_stream
      && List.for_all (fun g -> lk.top.(g - 1) = prefix_xor g) gs
      && increase_is_lower_top lk && increase_is_lower_top rk)

(* --- ECN / Field -------------------------------------------------------- *)

let test_ecn_scrub_changes () =
  let prng = Prng.create 4 in
  for _ = 1 to 50 do
    let original = Key.nonce prng ~width in
    let scrubbed = Ecn.scrubbed_component prng ~width original in
    Alcotest.(check bool) "differs" true (scrubbed <> original)
  done

let test_ecn_scrub_field () =
  let prng = Prng.create 5 in
  let f = Field.make ~component:0x1234 ~decrease:(Some 7) in
  Ecn.scrub prng ~width f;
  Alcotest.(check bool) "component replaced" true (f.Field.component <> 0x1234);
  Alcotest.(check (option int)) "decrease kept" (Some 7) f.Field.decrease

let test_field_wire_bytes () =
  let f1 = Field.make ~component:1 ~decrease:None in
  let f2 = Field.make ~component:1 ~decrease:(Some 2) in
  Alcotest.(check int) "component only" 2 (Field.wire_bytes ~width:16 f1);
  Alcotest.(check int) "both fields" 4 (Field.wire_bytes ~width:16 f2)

let suite =
  ( "delta",
    [
      Alcotest.test_case "top keys, no loss" `Quick test_top_keys_no_loss;
      Alcotest.test_case "loss breaks top key" `Quick test_loss_breaks_top_key;
      Alcotest.test_case "decrease keys" `Quick test_decrease_keys_on_congestion;
      Alcotest.test_case "increase key" `Quick test_increase_key;
      Alcotest.test_case "contradiction resolution" `Quick
        test_contradiction_resolution;
      Alcotest.test_case "total group loss" `Quick
        test_total_group_loss_limits_prefix;
      Alcotest.test_case "minimal group congested" `Quick
        test_minimal_group_congested;
      Alcotest.test_case "single-packet groups" `Quick test_single_packet_group;
      Alcotest.test_case "sender precompute" `Quick test_sender_precompute_stable;
      Alcotest.test_case "closed slot raises" `Quick test_closed_slot_raises;
      QCheck_alcotest.to_alcotest prop_top_key_iff_no_loss;
      Alcotest.test_case "replicated top key" `Quick test_replicated_top;
      Alcotest.test_case "replicated independence" `Quick
        test_replicated_independence;
      Alcotest.test_case "replicated decrease" `Quick test_replicated_decrease;
      Alcotest.test_case "replicated upgrade" `Quick test_replicated_upgrade;
      Alcotest.test_case "replicated minimal congested" `Quick
        test_replicated_minimal_congested;
      QCheck_alcotest.to_alcotest prop_replicated_independence;
      QCheck_alcotest.to_alcotest prop_instantiations_share_draws;
      Alcotest.test_case "ecn scrub changes component" `Quick
        test_ecn_scrub_changes;
      Alcotest.test_case "ecn scrub field" `Quick test_ecn_scrub_field;
      Alcotest.test_case "field wire bytes" `Quick test_field_wire_bytes;
    ] )
