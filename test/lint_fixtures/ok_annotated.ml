(* Fixture: violations silenced by inline annotations — the linter must
   report nothing here. Not compiled; only scanned by test_lint.ml. *)

(* lint: domain-local *)
let per_domain_scratch = ref 0

let seed_jitter () = Random.bits () (* lint: allow R2 *)

(* lint: allow R4 *)
let mixed delay_s rate_bps = delay_s +. rate_bps
