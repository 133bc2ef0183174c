(* A fixed reference kernel, timed between the slices of every job, that
   measures how fast the host runs OCaml code at that moment.

   The benchmark's host is a shared VM. For minutes at a time another
   tenant's use of the shared caches slows the same work by a third or
   more, without taking this VM's CPU (steal stays low). No
   statistic within a run removes a slowdown that covers the whole
   run. The probe slows down along with the jobs: it sorts, filters and
   folds a list of floats, and so allocates quickly and chases
   pointers, as the simulator does. Timed after a job's set-up and
   after each of its one-simulated-second slices, it samples the host
   around every slice; each slice's wall time is scaled by [nominal_s]
   over the mean of the probes before and after it (see [scale] and
   [Job.run]). The probe is the benchmark's own code and never calls
   the simulator, so a faster simulator still gives smaller scaled
   times. *)

(* The probe time that scaled times are referred to: a job reports the
   wall time it would take on a host that runs one probe in 5 ms. *)
let nominal_s = 0.005

let data =
  lazy
    (let st = Random.State.make [| 7 |] in
     List.init 3000 (fun _ -> Random.State.float st 1.0))

let run () =
  let l = Lazy.force data in
  let acc = ref 0.0 in
  for _ = 1 to 12 do
    let s = List.sort Float.compare l in
    acc := !acc +. List.fold_left ( +. ) 0.0 (List.filter (fun x -> x > 0.3) s)
  done;
  ignore (Sys.opaque_identity !acc)

(* The factor that refers a wall time measured while a probe took
   [probe_s] to the nominal probe time. *)
let scale ~probe_s = nominal_s /. probe_s
