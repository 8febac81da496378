module Prng = Mcc_util.Prng
module Gf = Mcc_util.Gf
module Shamir = Mcc_util.Shamir

type sender = {
  levels : int;
  counts : int array;
  cumulative : int array;  (* n_g = packets of groups 1..g *)
  first_index : int array;  (* 1-based slot index of group g's first packet *)
  quorums : int array;
  keys : Key.t array;
  polys : int array array;  (* polys.(g-1) = coefficients of q_g *)
}

let sender_create ~prng ~levels ~per_group_counts ~loss_thresholds =
  if levels < 1 then invalid_arg "Threshold.sender_create: levels";
  if Array.length per_group_counts <> levels then
    invalid_arg "Threshold.sender_create: counts length";
  if Array.length loss_thresholds <> levels then
    invalid_arg "Threshold.sender_create: thresholds length";
  Array.iter
    (fun c -> if c < 1 then invalid_arg "Threshold.sender_create: count < 1")
    per_group_counts;
  Array.iter
    (fun t ->
      if t < 0. || t >= 1. then
        invalid_arg "Threshold.sender_create: threshold out of [0,1)")
    loss_thresholds;
  let cumulative = Array.make levels 0 in
  let first_index = Array.make levels 0 in
  let running = ref 0 in
  for g = 1 to levels do
    first_index.(g - 1) <- !running + 1;
    running := !running + per_group_counts.(g - 1);
    cumulative.(g - 1) <- !running
  done;
  let quorums =
    Array.init levels (fun i ->
        let n = float_of_int cumulative.(i) in
        max 1 (int_of_float (ceil ((1. -. loss_thresholds.(i)) *. n))))
  in
  let keys = Array.init levels (fun _ -> Prng.int prng Gf.p) in
  let polys =
    Array.init levels (fun i ->
        let k = quorums.(i) in
        let coeffs = Array.make k 0 in
        coeffs.(0) <- keys.(i);
        for j = 1 to k - 1 do
          coeffs.(j) <- Prng.int prng Gf.p
        done;
        coeffs)
  in
  { levels; counts = per_group_counts; cumulative; first_index; quorums; keys; polys }

let level_key s ~level =
  if level < 1 || level > s.levels then invalid_arg "Threshold.level_key";
  s.keys.(level - 1)

let level_quorum s ~level =
  if level < 1 || level > s.levels then invalid_arg "Threshold.level_quorum";
  s.quorums.(level - 1)

let shares_for_packet s ~group ~packet_index =
  if group < 1 || group > s.levels then
    invalid_arg "Threshold.shares_for_packet: group";
  if packet_index < 1 || packet_index > s.counts.(group - 1) then
    invalid_arg "Threshold.shares_for_packet: packet_index";
  let x = s.first_index.(group - 1) + packet_index - 1 in
  List.init
    (s.levels - group + 1)
    (fun i ->
      let level = group + i in
      let y = Gf.eval_poly s.polys.(level - 1) x in
      (level, { Shamir.x; y }))

let share_bytes_per_packet s ~group =
  if group < 1 || group > s.levels then
    invalid_arg "Threshold.share_bytes_per_packet";
  4 * (s.levels - group + 1)

type receiver = {
  rlevels : int;
  shares : (int, Shamir.share) Hashtbl.t array;  (* per level, keyed by x *)
}

(* One store per level, created at the stdlib's minimum size: a receiver
   that never sees a share (every Plain one) pays 16 buckets a level, and
   a store that fills grows as it goes.  Reconstruction interpolates over
   the whole store, which is independent of its fold order. *)
let receiver_create ~levels =
  if levels < 1 then invalid_arg "Threshold.receiver_create";
  { rlevels = levels; shares = Array.init levels (fun _ -> Hashtbl.create 16) }

let on_shares r pairs =
  List.iter
    (fun (level, (share : Shamir.share)) ->
      if level >= 1 && level <= r.rlevels then
        Hashtbl.replace r.shares.(level - 1) share.Shamir.x share)
    pairs

let shares_received r ~level =
  if level < 1 || level > r.rlevels then
    invalid_arg "Threshold.shares_received";
  Hashtbl.length r.shares.(level - 1)

let reconstruct r ~level ~quorum =
  if level < 1 || level > r.rlevels then invalid_arg "Threshold.reconstruct";
  let tbl = r.shares.(level - 1) in
  if Hashtbl.length tbl < quorum then None
  else begin
    (* Interpolate over every received share: with at least k genuine
       points of a degree-(k-1) polynomial the result is exact however
       many extra points participate, so a caller whose quorum estimate
       is off on the high side still reconstructs correctly. *)
    let selected = Hashtbl.fold (fun _ share acc -> share :: acc) tbl [] in
    Some (Shamir.reconstruct selected)
  end
