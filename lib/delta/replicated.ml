let sender_create ~prng ~width ~groups ~upgrades =
  Layered.sender_create_with ~tops:Array.copy ~prng ~width ~groups ~upgrades

type outcome = { next_group : int; key : Key.t option }

let slot_end (r : Layered.receiver) ~group ~congested ~upgrade_to =
  let n = Array.length r.xors in
  let g = group in
  if g < 1 || g > n then invalid_arg "Replicated.slot_end: group";
  if congested then begin
    if g = 1 then { next_group = 0; key = None }
    else
      match r.dfields.(g - 1) with
      | Some d -> { next_group = g - 1; key = Some d }
      | None -> { next_group = 0; key = None }
  end
  else begin
    let top = r.xors.(g - 1) in
    if g < n && upgrade_to (g + 1) then { next_group = g + 1; key = Some top }
    else { next_group = g; key = Some top }
  end
