(* R6 fixture: the retired parse-stage R3 fixture's two expressions, at
   the same lines and columns. R6 must report both. *)

let is_idle rate_bps = rate_bps = 0.0

let changed ~prev_s ~next_s = prev_s <> next_s
