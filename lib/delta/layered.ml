module Prng = Mcc_util.Prng

type keys = {
  top : Key.t array;
  decrease : Key.t array;
  increase : Key.t option array;
}

let valid_keys keys ~group =
  let g = group in
  let n = Array.length keys.top in
  if g < 1 || g > n then invalid_arg "Layered.valid_keys";
  let base = [ keys.top.(g - 1) ] in
  let base =
    if g <= Array.length keys.decrease then keys.decrease.(g - 1) :: base
    else base
  in
  match keys.increase.(g - 1) with Some i -> i :: base | None -> base

type sender = {
  width : int;
  prng : Prng.t;
  keys : keys;
  acc : Key.t array;  (* running accumulator C_g *)
  closed : bool array;  (* last component already emitted *)
}

(* Eq. 3: lambda_g = C_1 xor ... xor C_g. *)
let prefix_xor c =
  let groups = Array.length c in
  let top = Array.make groups 0 in
  top.(0) <- c.(0);
  for g = 2 to groups do
    top.(g - 1) <- Key.xor top.(g - 2) c.(g - 1)
  done;
  top

let sender_create_with ~tops ~prng ~width ~groups ~upgrades =
  if groups < 1 then invalid_arg "Layered.sender_create: groups < 1";
  if Array.length upgrades <> groups then
    invalid_arg "Layered.sender_create: upgrades length";
  let c = Array.init groups (fun _ -> Key.nonce prng ~width) in
  let top = tops c in
  let decrease =
    Array.init (max 0 (groups - 1)) (fun _ -> Key.nonce prng ~width)
  in
  let increase =
    Array.init groups (fun i ->
        if i >= 1 && upgrades.(i) then Some top.(i - 1) else None)
  in
  {
    width;
    prng;
    keys = { top; decrease; increase };
    acc = Array.copy c;
    closed = Array.make groups false;
  }

let sender_create ~prng ~width ~groups ~upgrades =
  sender_create_with ~tops:prefix_xor ~prng ~width ~groups ~upgrades

let sender_keys s = s.keys

let next_component s ~group ~last =
  let n = Array.length s.keys.top in
  if group < 1 || group > n then invalid_arg "Layered.next_component: group";
  if s.closed.(group - 1) then
    invalid_arg "Layered.next_component: slot already closed for group";
  if last then begin
    s.closed.(group - 1) <- true;
    s.acc.(group - 1)
  end
  else begin
    let c = Key.nonce s.prng ~width:s.width in
    s.acc.(group - 1) <- Key.xor s.acc.(group - 1) c;
    c
  end

let decrease_field s ~group =
  let n = Array.length s.keys.top in
  if group < 1 || group > n then invalid_arg "Layered.decrease_field: group";
  if group = 1 then None else Some s.keys.decrease.(group - 2)

type receiver = {
  xors : Key.t array;  (* XOR of received component fields per group *)
  dfields : Key.t option array;  (* decrease field seen per group *)
}

let receiver_create ~groups =
  if groups < 1 then invalid_arg "Layered.receiver_create";
  { xors = Array.make groups 0; dfields = Array.make groups None }

let on_packet r ~group ~component ~decrease =
  let n = Array.length r.xors in
  if group < 1 || group > n then invalid_arg "Layered.on_packet: group";
  r.xors.(group - 1) <- Key.xor r.xors.(group - 1) component;
  match decrease with
  | Some d -> r.dfields.(group - 1) <- Some d
  | None -> ()

type outcome = { next_level : int; keys : (int * Key.t) list }

(* XOR of component accumulators for groups 1..g: the receiver's view of
   lambda_g (correct exactly when no packet of groups 1..g was lost). *)
let cumulative_xor r g =
  let acc = ref 0 in
  for j = 1 to g do
    acc := Key.xor !acc r.xors.(j - 1)
  done;
  !acc

let slot_end r ~level ~congested ~lost ~upgrade_to =
  let n = Array.length r.xors in
  let g = level in
  if g < 1 || g > n then invalid_arg "Layered.slot_end: level";
  if not congested then begin
    let tops = List.init g (fun i -> (i + 1, cumulative_xor r (i + 1))) in
    if g < n && upgrade_to (g + 1) then
      { next_level = g + 1; keys = tops @ [ (g + 1, cumulative_xor r g) ] }
    else { next_level = g; keys = tops }
  end
  else begin
    let clean_below = not (List.exists lost (List.init (g - 1) (fun i -> i + 1))) in
    if clean_below && upgrade_to g then begin
      (* Loss confined to group g and an upgrade to g is authorized: the
         increase key lets the receiver keep its level (paper's
         contradiction resolution, Section 3.1.1). *)
      let tops = List.init (g - 1) (fun i -> (i + 1, cumulative_xor r (i + 1))) in
      { next_level = g; keys = tops @ [ (g, cumulative_xor r (g - 1)) ] }
    end
    else begin
      (* Decrease keys delta_j ride in the decrease field of group j+1;
         the reachable level is the longest prefix of groups whose
         decrease fields arrived. *)
      let rec prefix j acc =
        if j > g - 1 then List.rev acc
        else
          match r.dfields.(j) (* group j+1, 0-indexed *) with
          | Some d -> prefix (j + 1) ((j, d) :: acc)
          | None -> List.rev acc
      in
      let keys = prefix 1 [] in
      { next_level = List.length keys; keys }
    end
  end
