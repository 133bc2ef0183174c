(* ccsim's benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --digests FILE
     main.exe --record-digests [--workload NAME]

   Runs jobs of one workload back to back (a closed loop, one
   simulation per job, each to the workload's fixed horizon) until
   [--seconds] of wall time are spent, checks every job's results, and
   prints one JSON object as its last line of output. With [--trace 0]
   it reports the end-to-end metrics; with [--trace 1] it alternates
   untraced and traced jobs and reports the per-layer metrics, plus a
   top-cost-layers table on standard error.

   Every job's digest must equal the one recorded in the digests file
   for its trajectory. [--record-digests] prints the reference digest
   of every recorded trajectory of the given (or every) workload, in
   the format of the digests file. *)

open Perfbench
module Profile = Ccsim_obs.Profile

(* --- statistics ----------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of a sorted array. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(Int.min (n - 1) (Int.max 0 (rank - 1)))

(* The highest percentile on the ladder with at least ten samples
   beyond it, but no higher than [cap]. *)
let tail_percentile ~cap n =
  List.find_opt
    (fun p -> p <= cap && float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0)
    [ 99.9; 99.0; 98.0; 95.0; 90.0; 75.0; 50.0 ]
  |> Option.value ~default:50.0

(* The percentile each workload's slice tail is capped at, one that a
   35 s run reaches with a margin even in the host's slow phases
   (bulk-deep-buffer: 7 slices per job, p90 from 15 jobs on, 20-23 run
   in a slow phase; mice-fq: 30, p95 from 7 jobs, 17-21 run, where p98
   would need 17; fluid-population: 20, p95 from 10 jobs, 13-15 run).
   In a fast phase more jobs fit, and without the cap the same code
   would report a higher percentile (bulk-deep-buffer's p95 from 29
   jobs on). *)
let tail_cap = function
  | Workloads.Bulk_deep_buffer -> 90.0
  | Mice_fq -> 95.0
  | Fluid_population -> 95.0

(* --- profile calibration --------------------------------------------------- *)

(* What the engine profile adds to each executed event in a traced run
   (two clock reads, the heap-depth and clock notes, the charge),
   measured on a scratch profile so it can be taken out of
   [engine.residual_s]. *)
let profile_event_ns () =
  let p = Profile.create () in
  let n = 100_000 in
  let t0 = Tracer.now_ns () in
  for i = 1 to n do
    Profile.note_heap_depth p 100;
    Profile.note_sim_time p (float_of_int i);
    let a = Profile.wall_now () in
    Profile.record p ~comp:"tcp" ~seconds:(Profile.wall_now () -. a)
  done;
  float_of_int (Tracer.now_ns () - t0) /. float_of_int n

(* --- per-layer metrics ------------------------------------------------------ *)

let per_layer (cal : Tracer.calibration) ~profile_ns (job : Job.t) =
  let t = Option.get job.tracer in
  let inst = job.instance in
  let self l = Tracer.corrected_self_ns t cal l in
  let words l = Tracer.corrected_self_words t cal l in
  let per n x = if n = 0 then 0.0 else x /. float_of_int n in
  let f = float_of_int in
  let events, scheduled, cancelled =
    match inst.profile with
    | Some p -> (Profile.events_executed p, Profile.events_scheduled p, Profile.events_cancelled p)
    | None -> (0, 0, 0)
  in
  let self_total = List.fold_left (fun acc l -> acc +. self l) 0.0 Tracer.traced_layers in
  let wrapper_ns = f (Tracer.total_spans t) *. cal.span_ns in
  let residual_ns =
    (job.sample.run_s *. 1e9) -. self_total -. wrapper_ns -. (f events *. profile_ns)
  in
  let drops =
    List.fold_left (fun acc (q : Ccsim_net.Qdisc.t) -> acc + q.stats.dropped) 0 !(inst.qdiscs)
  in
  let flow_steps = t.steps * inst.fluid_flows in
  [
    ("tcp.sender.acks", f t.acks, "count");
    ("tcp.sender.self_s", self Sender *. 1e-9, "s");
    ("tcp.sender.ns_per_ack", per t.acks (self Sender), "ns");
    ("tcp.sender.words_per_ack", per t.acks (words Sender), "words");
    ("tcp.sender.retrans_segs", f t.retrans_segs, "count");
    ("tcp.sender.inflight_segs_mean", Tracer.inflight_segs_mean t, "segs");
    ("tcp.sender.inflight_segs_p99", f (Tracer.inflight_segs_p99 t), "segs");
    ("tcp.receiver.data_pkts", f t.data_pkts, "count");
    ("tcp.receiver.self_s", self Receiver *. 1e-9, "s");
    ("tcp.receiver.ns_per_pkt", per t.data_pkts (self Receiver), "ns");
    ("tcp.receiver.words_per_pkt", per t.data_pkts (words Receiver), "words");
    ("tcp.receiver.ooo_frac", Tracer.ooo_frac t, "fraction");
    ("cca.calls", f (Tracer.calls t Cca), "count");
    ("cca.self_s", self Cca *. 1e-9, "s");
    ("cca.ns_per_call", per (Tracer.calls t Cca) (self Cca), "ns");
    ("cca.words_per_call", per (Tracer.calls t Cca) (words Cca), "words");
    ("net.qdisc.enqueues", f t.enqueues, "count");
    ("net.qdisc.dequeues", f t.dequeues, "count");
    ("net.qdisc.drops", f drops, "count");
    ("net.qdisc.self_s", self Qdisc *. 1e-9, "s");
    ("net.qdisc.ns_per_op", per (Tracer.calls t Qdisc) (self Qdisc), "ns");
    ("net.link.sends", f t.sends, "count");
    ("net.link.self_s", self Link *. 1e-9, "s");
    ("engine.events_executed", f events, "count");
    ("engine.events_scheduled", f scheduled, "count");
    ("engine.events_cancelled", f cancelled, "count");
    ("engine.heap_depth_p99", f (Tracer.pending_p99 t), "events");
    ("engine.residual_s", residual_ns *. 1e-9, "s");
    ("app.flows_spawned", f (inst.flows_spawned ()), "count");
    ("app.flows_completed", f (inst.flows_completed ()), "count");
    ("fluid.steps", f t.steps, "count");
    ("fluid.self_s", self Fluid *. 1e-9, "s");
    ("fluid.ns_per_flow_step", per flow_steps (self Fluid), "ns");
    ("fluid.words_per_flow_step", per flow_steps (words Fluid), "words");
    ("fluid.build_s", (if inst.fluid_flows > 0 then job.sample.setup_s else 0.0), "s");
    ("trace.wrapper_ns", cal.span_ns, "ns");
    ("trace.wrapper_words", cal.words, "words");
  ]

(* Self-time and allocation shares of the traced run, largest first. *)
let top_layers workload (cal : Tracer.calibration) ~profile_ns (job : Job.t) =
  let t = Option.get job.tracer in
  let run_ns = job.sample.run_s *. 1e9 in
  let rows =
    List.map
      (fun l ->
        (Tracer.name l, Tracer.corrected_self_ns t cal l, Tracer.corrected_self_words t cal l))
      Tracer.traced_layers
  in
  let self_total = List.fold_left (fun acc (_, ns, _) -> acc +. ns) 0.0 rows in
  let words_total = List.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 rows in
  let events =
    match job.instance.profile with Some p -> Profile.events_executed p | None -> 0
  in
  let overhead_ns =
    (float_of_int (Tracer.total_spans t) *. cal.span_ns) +. (float_of_int events *. profile_ns)
  in
  let rows =
    rows
    @ [
        ("engine (residual)", Float.max 0.0 (run_ns -. self_total -. overhead_ns), 0.0);
        ("trace overhead", overhead_ns, 0.0);
      ]
    |> List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a)
  in
  let all_words = Float.max 1.0 job.sample.alloc_words in
  let b = Buffer.create 1024 in
  Printf.bprintf b "top cost layers, %s (traced run %.3f s, %.1f Mwords):\n" workload
    job.sample.run_s (job.sample.alloc_words /. 1e6);
  Printf.bprintf b "  %-20s %10s %7s %12s %7s\n" "layer" "self s" "share" "Mwords" "share";
  List.iter
    (fun (name, ns, w) ->
      Printf.bprintf b "  %-20s %10.4f %6.1f%% %12.3f %6.1f%%\n" name (ns *. 1e-9)
        (100.0 *. ns /. run_ns) (w /. 1e6) (100.0 *. w /. all_words))
    rows;
  Printf.bprintf b "  wrapped layers allocate %.1f%% of the run's minor words\n"
    (100.0 *. words_total /. all_words);
  (match rows with
  | (top, _, _) :: _ -> Printf.bprintf b "  top layer: %s\n" top
  | [] -> ());
  Buffer.contents b

(* --- output ----------------------------------------------------------------- *)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number value) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

(* --- driver ------------------------------------------------------------------ *)

let bench kind ~seed ~seconds ~trace ~digests =
  let workload = Workloads.name kind in
  let cal, profile_ns =
    if trace then (Tracer.calibrate (), profile_event_ns ())
    else ({ Tracer.span_ns = 0.0; self_ns = 0.0; words = 0.0 }, 0.0)
  in
  let attempted = ref 0 and failed = ref 0 in
  (* Only numbers are kept from a job, never the simulation itself, so
     every job runs on a heap holding nothing but its own state. *)
  let untraced : (int * Job.sample) list ref = ref [] and traced = ref [] and table = ref "" in
  let deadline = Tracer.now_ns () + int_of_float (seconds *. 1e9) in
  let checked = ref 0 in
  let job_ok ~job_seed (job : Job.t) =
    let digest_ok =
      match Hashtbl.find_opt digests (workload, job_seed) with
      | None ->
          Printf.eprintf "FAIL %s trajectory %d: no recorded digest\n%!" workload job_seed;
          false
      | Some expected ->
          incr checked;
          if not (String.equal job.digest expected) then
            Printf.eprintf "FAIL %s trajectory %d: digest %s, expected %s\n%!" workload
              job_seed job.digest expected;
          String.equal job.digest expected
    in
    List.iter (Printf.eprintf "FAIL %s trajectory %d: %s\n%!" workload job_seed) job.violations;
    digest_ok && job.violations = []
  in
  let run_one ~traced:tr ~job_seed =
    incr attempted;
    match Job.run ~traced:tr ~probed:true kind ~seed:job_seed with
    | job when not (job_ok ~job_seed job) -> incr failed
    | job when tr ->
        traced := (job.sample.scaled_run_s, per_layer cal ~profile_ns job) :: !traced;
        table := top_layers workload cal ~profile_ns job
    | job -> untraced := (job_seed, job.sample) :: !untraced
    | exception e ->
        incr failed;
        Printf.eprintf "FAIL %s trajectory %d: raised %s\n%!" workload job_seed
          (Printexc.to_string e)
  in
  let continue () = Tracer.now_ns () < deadline || !attempted < if trace then 2 else 1 in
  let round = ref 0 in
  while continue () do
    let job_seed = Reference.trajectory_seed ~seed !round in
    incr round;
    run_one ~traced:false ~job_seed;
    if trace && continue () then run_one ~traced:true ~job_seed
  done;
  let correct = !failed = 0 && !attempted > 0 in
  Printf.eprintf "%s seed %d: %d of %d jobs checked against a recorded digest\n%!" workload seed
    !checked !attempted;
  (* One figure per trajectory, the mean over its jobs, so that a
     trajectory a run reaches twice weighs no more than one it reaches
     once. Wall times are referred to the nominal probe time
     (probe.ml). *)
  let trajectories =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (t, j) -> Hashtbl.replace tbl t (j :: Option.value (Hashtbl.find_opt tbl t) ~default:[]))
      !untraced;
    Hashtbl.fold (fun _ jobs acc -> jobs :: acc) tbl []
  in
  let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
  let per_trajectory f = List.map (fun jobs -> mean (List.map f jobs)) trajectories in
  let run_s = median (per_trajectory (fun (j : Job.sample) -> j.scaled_run_s)) in
  Printf.eprintf "%s seed %d: probe median %.3f ms (nominal %g ms), unscaled run_s median %.4f s\n%!"
    workload seed
    (1e3 *. median (per_trajectory (fun j -> j.probe_s)))
    (1e3 *. Probe.nominal_s)
    (median (per_trajectory (fun j -> j.run_s)));
  let metrics =
    if not trace then begin
      let slices =
        sorted
          (List.concat_map
             (fun (jobs : Job.sample list) ->
               List.init
                 (Array.length (List.hd jobs).scaled_slices_ms)
                 (fun k -> mean (List.map (fun (j : Job.sample) -> j.scaled_slices_ms.(k)) jobs)))
             trajectories)
      in
      let p = tail_percentile ~cap:(tail_cap kind) (Array.length slices) in
      Printf.eprintf "%s seed %d: %d jobs over %d trajectories, slice_ms_tail is p%g of %d slices\n%!"
        workload seed (List.length !untraced) (List.length trajectories) p (Array.length slices);
      [
        ("run_s", run_s, "s");
        ("setup_s", median (per_trajectory (fun (j : Job.sample) -> j.scaled_setup_s)), "s");
        ("slice_ms_p50", percentile slices 50.0, "ms");
        ("slice_ms_tail", percentile slices p, "ms");
        ("alloc_mwords", median (per_trajectory (fun j -> j.alloc_words /. 1e6)), "Mwords");
        ( "peak_heap_mb",
          median
            (per_trajectory (fun j ->
                 float_of_int (j.peak_heap_words * (Sys.word_size / 8)) /. 1e6)),
          "MB" );
      ]
    end
    else begin
      prerr_string !table;
      flush stderr;
      let traced_run_s = median (List.map fst !traced) in
      let rows = List.map snd !traced in
      let columns =
        match rows with
        | [] -> []
        | first :: _ ->
            List.mapi
              (fun i (name, _, unit) ->
                (name, median (List.map (fun row -> let _, v, _ = List.nth row i in v) rows), unit))
              first
      in
      columns @ [ ("trace.overhead_frac", (traced_run_s /. run_s) -. 1.0, "fraction") ]
    end
  in
  print_result ~correct ~attempted:!attempted ~failed:!failed metrics

let record_digests kinds =
  List.iter
    (fun kind ->
      List.iter
        (fun job_seed ->
          let job = Job.run kind ~seed:job_seed in
          if job.violations <> [] then begin
            List.iter
              (Printf.eprintf "%s trajectory %d: %s\n%!" (Workloads.name kind) job_seed)
              job.violations;
            exit 1
          end;
          Printf.printf "%s %d %s\n%!" (Workloads.name kind) job_seed job.digest)
        Reference.recorded)
    kinds

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let digests = ref "" and record = ref false in
  let usage =
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --digests FILE\n\
     main.exe --record-digests [--workload NAME]"
  in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--digests" :: v :: rest -> digests := v; parse rest
    | "--record-digests" :: rest -> record := true; parse rest
    | [] -> ()
    | arg :: _ ->
        prerr_endline ("unknown argument " ^ arg ^ "\n" ^ usage);
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let kind = Workloads.of_name !workload in
  let die msg =
    prerr_endline (msg ^ "\n" ^ usage);
    exit 2
  in
  match (!record, kind) with
  | true, _ -> record_digests (match kind with Some k -> [ k ] | None -> Workloads.all)
  | false, None -> die ("unknown workload " ^ !workload)
  | false, Some _ when String.equal !digests "" -> die "--digests FILE is required"
  | false, Some kind -> (
      match Reference.load !digests with
      | Error msg -> die msg
      | Ok digests -> bench kind ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~digests)
