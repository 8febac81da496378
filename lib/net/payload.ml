type t = ..
type t += Raw
