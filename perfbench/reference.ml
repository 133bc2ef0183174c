(* Which trajectories a run's jobs simulate, and the reference digest
   each of them must reproduce. *)

(* A run's jobs cycle through [trajectories] trajectory seeds, so every
   per-run median is taken over as many packet-level trajectories as
   the run has jobs, not one: trajectories differ in cost, and a run's
   figures must not swing with the few it happens to draw. A 35 s run
   fits at most 29 jobs of any workload, so no job there repeats a
   trajectory. *)
let trajectories = 30

(* Reference digests are recorded for a pool of [pool] trajectories
   and for the held-out seed's own. Run seed [s] takes the
   [trajectories] consecutive pool entries from [trajectories * s],
   wrapping around the pool, so every job of every run is checked
   against a recorded digest. *)
let pool = 100
let held_out_seed = 9173

let trajectory_seed ~seed round =
  let i = round mod trajectories in
  if seed = held_out_seed then (trajectories * seed) + i
  else ((((trajectories * seed) + i) mod pool) + pool) mod pool

let recorded = List.init pool Fun.id @ List.init trajectories (trajectory_seed ~seed:held_out_seed)

(* The digests file: one "WORKLOAD TRAJECTORY HEX-DIGEST" line per
   trajectory. A file that is missing or has a line that does not parse
   is an error, never an empty reference. *)
let load path =
  let tbl = Hashtbl.create 512 in
  let bad fmt = Printf.ksprintf (fun msg -> Error (path ^ ": " ^ msg)) fmt in
  let is_hex c = match c with '0' .. '9' | 'a' .. 'f' -> true | _ -> false in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text ->
      let rec go lineno = function
        | [] -> Ok tbl
        | "" :: rest -> go (lineno + 1) rest
        | line :: rest -> (
            match String.split_on_char ' ' line with
            | [ w; seed; d ]
              when Option.is_some (Workloads.of_name w)
                   && Option.is_some (int_of_string_opt seed)
                   && String.length d = 32
                   && String.for_all is_hex d ->
                Hashtbl.replace tbl (w, int_of_string seed) d;
                go (lineno + 1) rest
            | _ -> bad "line %d does not parse: %S" lineno line)
      in
      go 1 (String.split_on_char '\n' text)
