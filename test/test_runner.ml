(* Ccsim_runner: domain pool, result cache, digests, sweeps.

   The load-bearing property is the acceptance criterion: a parallel
   pool produces row-for-row identical output to a serial one, because
   every scenario owns its seeded Rng and jobs render to strings. *)

module R = Ccsim_runner
module E = Ccsim_core.Experiments

let job_of ?duration ?n ~seed (e : E.t) =
  let params = E.effective_params e ?duration ?n ~seed () in
  R.Job.make ~name:e.id
    ~digest:(R.Job.digest_of_params ~name:e.id params)
    (fun () -> e.render ?duration ?n ~seed ())

let exp id = Option.get (E.find id)

let outputs results = Array.to_list (Array.map (fun (r : R.Job.result) -> r.output) results)

let test_parallel_matches_serial () =
  (* Both experiments warm up for 10 simulated seconds, so durations
     must exceed that. *)
  let mk () = [ job_of ~duration:12.0 ~seed:7 (exp "fig1"); job_of ~duration:12.0 ~seed:7 (exp "e1") ] in
  let serial = R.Pool.run (R.Pool.config ~jobs:1 ()) (mk ()) in
  let parallel = R.Pool.run (R.Pool.config ~jobs:4 ()) (mk ()) in
  Alcotest.(check (list string))
    "fig1+e1 rows identical across -j 1 / -j 4" (outputs serial) (outputs parallel);
  Array.iter (fun (r : R.Job.result) -> Alcotest.(check bool) "ok" true r.ok) parallel

let test_raising_job_isolated () =
  let boom = R.Job.make ~name:"boom" ~digest:"deadbeef" (fun () -> failwith "kaboom") in
  let fine = R.Job.make ~name:"fine" ~digest:"cafe" (fun () -> "fine rows\n") in
  let results = R.Pool.run (R.Pool.config ~jobs:2 ()) [ boom; fine ] in
  Alcotest.(check int) "both jobs reported" 2 (Array.length results);
  let b = results.(0) and f = results.(1) in
  Alcotest.(check bool) "raising job failed" false b.ok;
  Alcotest.(check bool)
    "error text kept" true
    (match b.error with Some e -> e <> "" | None -> false);
  Alcotest.(check string) "error row substituted" (R.Job.error_row ~name:"boom" (Option.get b.error)) b.output;
  Alcotest.(check bool) "sibling job unaffected" true f.ok;
  Alcotest.(check string) "sibling output intact" "fine rows\n" f.output

let test_retries () =
  let tries = ref 0 in
  let flaky =
    R.Job.make ~name:"flaky" ~digest:"f1aky" (fun () ->
        incr tries;
        if !tries = 1 then failwith "transient" else "recovered\n")
  in
  let results = R.Pool.run (R.Pool.config ~jobs:1 ~retries:1 ()) [ flaky ] in
  Alcotest.(check bool) "succeeded on retry" true results.(0).ok;
  Alcotest.(check int) "two attempts" 2 results.(0).attempts;
  Alcotest.(check string) "retried output" "recovered\n" results.(0).output

let with_tmp_cache f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ccsim_cache_test_%d_%.0f" (Unix.getpid ()) (Unix.gettimeofday () *. 1e6))
  in
  let cache = R.Cache.create ~dir () in
  Fun.protect
    ~finally:(fun () ->
      R.Cache.clear cache;
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f cache)

let test_cache_hit_skips_execution () =
  with_tmp_cache @@ fun cache ->
  let executions = ref 0 in
  let mk () =
    R.Job.make ~name:"counted" ~digest:"0123abcd" (fun () ->
        incr executions;
        "expensive rows\n")
  in
  let config = R.Pool.config ~jobs:1 ~cache () in
  let first = R.Pool.run config [ mk () ] in
  let second = R.Pool.run config [ mk () ] in
  Alcotest.(check bool) "first run misses" false first.(0).cache_hit;
  Alcotest.(check bool) "second run hits" true second.(0).cache_hit;
  Alcotest.(check int) "thunk ran once" 1 !executions;
  Alcotest.(check string) "identical rows from cache" first.(0).output second.(0).output;
  Alcotest.(check int) "hit reports zero attempts" 0 second.(0).attempts

let test_failures_not_cached () =
  with_tmp_cache @@ fun cache ->
  let attempts = ref 0 in
  let mk () =
    R.Job.make ~name:"sometimes" ~digest:"feedface" (fun () ->
        incr attempts;
        if !attempts = 1 then failwith "first run breaks" else "good rows\n")
  in
  let config = R.Pool.config ~jobs:1 ~cache () in
  let first = R.Pool.run config [ mk () ] in
  let second = R.Pool.run config [ mk () ] in
  Alcotest.(check bool) "first failed" false first.(0).ok;
  Alcotest.(check bool) "failure was not served from cache" false second.(0).cache_hit;
  Alcotest.(check bool) "second succeeded" true second.(0).ok

let test_digest_stability () =
  let d1 = R.Job.digest_of_params ~name:"e1" [ ("duration", "60"); ("seed", "42") ] in
  let d2 = R.Job.digest_of_params ~name:"e1" [ ("seed", "42"); ("duration", "60") ] in
  let d3 = R.Job.digest_of_params ~name:"e1" [ ("duration", "60"); ("seed", "43") ] in
  let d4 = R.Job.digest_of_params ~name:"e2" [ ("duration", "60"); ("seed", "42") ] in
  Alcotest.(check string) "parameter order canonicalized" d1 d2;
  Alcotest.(check bool) "seed changes digest" true (d1 <> d3);
  Alcotest.(check bool) "name changes digest" true (d1 <> d4)

let test_sweep_points () =
  let points =
    R.Sweep.points [ R.Sweep.axis "exp" [ "e1"; "e2" ]; R.Sweep.ints "seed" [ 1; 2; 3 ] ]
  in
  Alcotest.(check int) "cross product size" 6 (List.length points);
  Alcotest.(check string) "first axis varies slowest" "exp=e1 seed=1"
    (R.Sweep.label (List.hd points));
  Alcotest.(check (option string)) "lookup" (Some "e2")
    (R.Sweep.get (List.nth points 5) "exp");
  Alcotest.(check int) "no axes -> one empty point" 1 (List.length (R.Sweep.points []));
  Alcotest.check_raises "empty axis rejected"
    (Invalid_argument "Sweep.axis bad: no values") (fun () ->
      ignore (R.Sweep.axis "bad" []))

let test_backoff_deterministic () =
  let config = R.Pool.config ~jobs:1 ~retries:3 () in
  let d1 = R.Pool.backoff_delay_s config ~digest:"abc" ~attempt:1 in
  let d2 = R.Pool.backoff_delay_s config ~digest:"abc" ~attempt:1 in
  Alcotest.(check (float 0.0)) "same (digest, attempt) -> same delay" d1 d2;
  Alcotest.(check bool) "jittered around base" true (d1 >= 0.025 && d1 < 0.05);
  let far = R.Pool.backoff_delay_s config ~digest:"abc" ~attempt:12 in
  Alcotest.(check bool) "capped" true (far <= 1.0);
  Alcotest.(check bool) "still jittered below cap" true (far >= 0.5);
  let other = R.Pool.backoff_delay_s config ~digest:"xyz" ~attempt:1 in
  Alcotest.(check bool) "digest decorrelates jitter" true (d1 <> other);
  let off = R.Pool.config ~jobs:1 ~backoff_base_s:0.0 () in
  Alcotest.(check (float 0.0)) "base 0 disables backoff" 0.0
    (R.Pool.backoff_delay_s off ~digest:"abc" ~attempt:5);
  Alcotest.check_raises "negative base rejected"
    (Invalid_argument "Pool.config: backoff_base_s must be non-negative") (fun () ->
      ignore (R.Pool.config ~backoff_base_s:(-0.1) ()));
  Alcotest.check_raises "cap below base rejected"
    (Invalid_argument "Pool.config: backoff_cap_s must be >= backoff_base_s") (fun () ->
      ignore (R.Pool.config ~backoff_base_s:0.5 ~backoff_cap_s:0.1 ()))

let test_deadline_salvages_partial () =
  (* A cooperative job checks the ambient deadline at event boundaries:
     when the wall-clock budget runs out mid-run, the sim stops cleanly
     and the partial output is salvaged as a degraded success. *)
  let module Sim = Ccsim_engine.Sim in
  let cooperative =
    R.Job.make ~name:"slowpoke" ~digest:"s10wp0ke" (fun () ->
        let sim = Sim.create () in
        let events = ref 0 in
        let rec tick () =
          incr events;
          (* Burn real time so the wall-clock deadline can fire. *)
          let t0 = Unix.gettimeofday () in
          while Unix.gettimeofday () -. t0 < 2e-4 do () done;
          if Sim.now sim < 3600.0 then ignore (Sim.schedule sim ~delay:0.001 tick)
        in
        ignore (Sim.schedule sim ~delay:0.0 tick);
        Sim.run sim;
        if Sim.deadline_hit sim then Printf.sprintf "partial after %d events\n" !events
        else "complete\n")
  in
  let config = R.Pool.config ~jobs:1 ~timeout_s:0.3 () in
  let r = (R.Pool.run config [ cooperative ]).(0) in
  Alcotest.(check bool) "salvaged as ok" true r.ok;
  Alcotest.(check bool) "flagged timed out" true r.timed_out;
  Alcotest.(check bool) "flagged degraded" true r.degraded;
  Alcotest.(check bool) "partial output kept" true
    (String.length r.output >= 13 && String.sub r.output 0 13 = "partial after");
  Alcotest.(check bool) "deadline note in error" true
    (match r.error with Some e -> e <> "" | None -> false);
  Alcotest.(check bool) "stopped well before sim horizon" true (r.wall_s < 60.0)

let test_degraded_not_cached () =
  with_tmp_cache @@ fun cache ->
  let module Sim = Ccsim_engine.Sim in
  let runs = ref 0 in
  let mk () =
    R.Job.make ~name:"slow2" ~digest:"s10w0002" (fun () ->
        incr runs;
        let sim = Sim.create () in
        let rec tick () =
          let t0 = Unix.gettimeofday () in
          while Unix.gettimeofday () -. t0 < 2e-4 do () done;
          if Sim.now sim < 3600.0 then ignore (Sim.schedule sim ~delay:0.001 tick)
        in
        ignore (Sim.schedule sim ~delay:0.0 tick);
        Sim.run sim;
        if Sim.deadline_hit sim then "partial\n" else "complete\n")
  in
  let config = R.Pool.config ~jobs:1 ~cache ~timeout_s:0.2 () in
  let first = (R.Pool.run config [ mk () ]).(0) in
  let second = (R.Pool.run config [ mk () ]).(0) in
  Alcotest.(check bool) "first degraded" true first.degraded;
  Alcotest.(check bool) "degraded result not served from cache" false second.cache_hit;
  Alcotest.(check int) "thunk re-ran" 2 !runs

let test_telemetry_exit_codes () =
  let ok = R.Job.make ~name:"a" ~digest:"aa" (fun () -> "fine\n") in
  let results = R.Pool.run (R.Pool.config ~jobs:1 ()) [ ok ] in
  let tele = R.Telemetry.make ~pool_jobs:1 ~total_wall_s:0.1 results in
  Alcotest.(check int) "all ok -> 0" 0 (R.Telemetry.exit_code tele);
  let boom = R.Job.make ~name:"b" ~digest:"bb" (fun () -> failwith "x") in
  let results = R.Pool.run (R.Pool.config ~jobs:1 ()) [ ok; boom ] in
  let tele = R.Telemetry.make ~pool_jobs:1 ~total_wall_s:0.1 results in
  Alcotest.(check int) "failure -> 1" 1 (R.Telemetry.exit_code tele);
  let stuck =
    R.Job.make ~name:"c" ~digest:"cc" (fun () ->
        Unix.sleepf 0.3;
        "late\n")
  in
  let results = R.Pool.run (R.Pool.config ~jobs:1 ~timeout_s:0.05 ()) [ stuck ] in
  let tele = R.Telemetry.make ~pool_jobs:1 ~total_wall_s:0.1 results in
  Alcotest.(check bool) "non-cooperative job times out" true results.(0).timed_out;
  Alcotest.(check bool) "hard timeout is not degraded" false results.(0).degraded;
  Alcotest.(check int) "timeout -> 124" 124 (R.Telemetry.exit_code tele)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* More workers than host cores: the speedup claim in BENCH/telemetry
   output would otherwise mislead, so the report must say so. *)
let test_telemetry_oversubscription () =
  let ok = R.Job.make ~name:"a" ~digest:"aa" (fun () -> "fine\n") in
  let results = R.Pool.run (R.Pool.config ~jobs:1 ()) [ ok ] in
  let cores = R.Telemetry.host_cores () in
  Alcotest.(check bool) "cores positive" true (cores > 0);
  let over = R.Telemetry.make ~pool_jobs:(cores + 1) ~total_wall_s:0.1 results in
  Alcotest.(check bool) "flagged" true (R.Telemetry.oversubscribed over);
  Alcotest.(check bool) "summary annotated" true
    (contains ~sub:"[oversubscribed:" (R.Telemetry.summary over));
  Alcotest.(check bool) "json flagged" true
    (contains ~sub:"\"oversubscribed\": true" (R.Telemetry.to_json over));
  let fits = R.Telemetry.make ~pool_jobs:1 ~total_wall_s:0.1 results in
  Alcotest.(check bool) "one worker never oversubscribes" false
    (R.Telemetry.oversubscribed fits);
  Alcotest.(check bool) "summary clean" false
    (contains ~sub:"[oversubscribed:" (R.Telemetry.summary fits));
  Alcotest.(check bool) "json carries host_cores" true
    (contains ~sub:"\"host_cores\":" (R.Telemetry.to_json fits))

let test_registry_complete () =
  Alcotest.(check int) "twenty experiments" 20 (List.length E.all);
  Alcotest.(check bool) "find p1" true (E.find "p1" <> None);
  (match E.find "p1" with
  | Some p1 ->
      Alcotest.(check (list string)) "p1 backends" [ "fluid"; "hybrid" ]
        (List.map Ccsim_fluid.Backend.name p1.E.backends);
      let params = E.effective_params p1 ~seed:7 () in
      Alcotest.(check (option string)) "backend default in params" (Some "fluid")
        (List.assoc_opt "backend" params)
  | None -> ());
  Alcotest.(check bool) "find fig1" true (E.find "fig1" <> None);
  Alcotest.(check bool) "find unknown" true (E.find "nope" = None);
  let params = E.effective_params (exp "fig2") ~seed:7 () in
  Alcotest.(check (option string)) "sized default applied" (Some "9984")
    (List.assoc_opt "n" params)

let suite =
  [
    ("pool: -j 4 rows identical to -j 1 (fig1, e1)", `Slow, test_parallel_matches_serial);
    ("pool: raising job yields error row, pool survives", `Quick, test_raising_job_isolated);
    ("pool: retry recovers a flaky job", `Quick, test_retries);
    ("cache: second run hits without re-executing", `Quick, test_cache_hit_skips_execution);
    ("cache: failures are not cached", `Quick, test_failures_not_cached);
    ("job: digest is canonical and parameter-sensitive", `Quick, test_digest_stability);
    ("sweep: cross product order and labels", `Quick, test_sweep_points);
    ("pool: backoff is deterministic, capped, seeded by digest", `Quick, test_backoff_deterministic);
    ("pool: deadline salvages partial output as degraded", `Quick, test_deadline_salvages_partial);
    ("pool: degraded results are never cached", `Quick, test_degraded_not_cached);
    ("telemetry: exit codes 0/1/124", `Quick, test_telemetry_exit_codes);
    ("telemetry: oversubscription flagged", `Quick, test_telemetry_oversubscription);
    ("registry: DESIGN.md index is complete", `Quick, test_registry_complete);
  ]
