(* Twin: every [@hot] comparison here is specialised by its operand
   type, through abbreviations and across units; the unannotated
   generic compare is out of the rule's scope. *)
type time = float

let[@hot] earlier (times : float array) i j = times.(i) < times.(j)
let[@hot] time_order (a : time) b = compare a b
let[@hot] key_equal (a : Mcc_delta.Key.t) b = a = b
let[@hot] same_protocol (a : Mcc_core.Spec.protocol) b = a <> b
let[@hot] is_none (x : int option) = x = None
let[@hot] named (s : string) = s = "heap"
let poly_less a b = a < b
