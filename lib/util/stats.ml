let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let jain_fairness xs =
  match xs with
  | [] -> 1.0
  | _ ->
      let s = List.fold_left ( +. ) 0. xs in
      let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
      if Float.equal s2 0. then 1.0
      else s *. s /. (float_of_int (List.length xs) *. s2)
