(* One job: build a workload instance, run it to its horizon, digest
   and check the results. The build is timed as set-up; the run is
   timed per one-simulated-second slice. *)

type sample = {
  setup_s : float;
  run_s : float;
  slices_ms : float array;  (* wall milliseconds per simulated second *)
  alloc_words : float;  (* minor-heap words allocated by the run *)
  probe_s : float;  (* mean wall time of the job's probes; 0 without *)
  peak_heap_words : int;
      (* the largest major heap seen at the job's probes; 0 without *)
  scaled_setup_s : float;
  scaled_run_s : float;
  scaled_slices_ms : float array;
      (* the same wall times referred to the nominal probe time: set-up
         by the probe that follows it, each slice by the mean of the
         probes before and after it, the run as the sum of its scaled
         slices; equal to the unscaled ones in a job without probes *)
}

type t = {
  sample : sample;
  digest : string;
  violations : string list;
  tracer : Tracer.t option;
  instance : Workloads.instance;
}

let seconds_between t0 t1 = float_of_int (t1 - t0) *. 1e-9

(* [sliced:false] runs to the horizon in one call; the digest must not
   tell the two apart. [probed] (sliced jobs only) times a [Probe.run]
   after the set-up and after every slice, and reads the major heap's
   size before each; neither the probes' time nor their allocation is
   counted in the run, and the digest must not tell them apart either.
   [horizon_s] shortens the run for tests. Each job starts from a
   collected heap so jobs are measured from the same state. *)
let run ?(traced = false) ?(sliced = true) ?(probed = false) ?horizon_s kind ~seed =
  (* The set-up is timed on a second build of the instance: the first,
     untimed and collected, warms the caches. Built cold after a full
     collection, the set-up's cache misses slowed and sped with the
     shared host's phases far more than the probe did (mice-fq's 10 us
     set-up by a quarter). *)
  ignore (Sys.opaque_identity (Workloads.build kind ~seed));
  Gc.full_major ();
  let tracer = if traced then Some (Tracer.create ()) else None in
  let t0 = Tracer.now_ns () in
  let instance = Workloads.build ?tracer kind ~seed in
  let t1 = Tracer.now_ns () in
  let horizon = Option.value horizon_s ~default:instance.horizon_s in
  let probed = probed && sliced in
  let slices_ms = Array.make (if sliced then horizon else 0) 0.0 in
  (* probes_s.(k) follows slice k; probes_s.(0) follows the set-up *)
  let probes_s = Array.make (if probed then horizon + 1 else 0) 0.0 in
  (* a float array cell, not a ref, so that adding to it allocates
     nothing the run would count *)
  let probe_words = [| 0.0 |] in
  let peak_heap_words = ref 0 in
  let probe k =
    if probed then begin
      let pw = Gc.minor_words () in
      peak_heap_words := Int.max !peak_heap_words (Gc.quick_stat ()).heap_words;
      let a = Tracer.now_ns () in
      Probe.run ();
      probes_s.(k) <- seconds_between a (Tracer.now_ns ());
      probe_words.(0) <- probe_words.(0) +. (Gc.minor_words () -. pw)
    end
  in
  let w0 = Gc.minor_words () in
  let r0 = Tracer.now_ns () in
  probe 0;
  if sliced then
    for k = 1 to horizon do
      let a = Tracer.now_ns () in
      instance.advance (float_of_int k);
      slices_ms.(k - 1) <- float_of_int (Tracer.now_ns () - a) *. 1e-6;
      probe k
    done
  else instance.advance (float_of_int horizon);
  let r1 = Tracer.now_ns () in
  let alloc_words = Gc.minor_words () -. w0 -. probe_words.(0) in
  let probe_total_s = Array.fold_left ( +. ) 0.0 probes_s in
  let run_s = seconds_between r0 r1 -. probe_total_s in
  let setup_s = seconds_between t0 t1 in
  let scaled_slices_ms, scaled_setup_s, probe_s =
    if probed then
      ( Array.mapi
          (fun k ms -> ms *. Probe.scale ~probe_s:((probes_s.(k) +. probes_s.(k + 1)) /. 2.0))
          slices_ms,
        setup_s *. Probe.scale ~probe_s:probes_s.(0),
        probe_total_s /. float_of_int (horizon + 1) )
    else (slices_ms, setup_s, 0.0)
  in
  let scaled_run_s =
    if probed then Array.fold_left ( +. ) 0.0 scaled_slices_ms *. 1e-3 else run_s
  in
  {
    sample =
      {
        setup_s;
        run_s;
        slices_ms;
        alloc_words;
        probe_s;
        peak_heap_words = !peak_heap_words;
        scaled_setup_s;
        scaled_run_s;
        scaled_slices_ms;
      };
    digest = instance.digest ();
    violations = instance.check ();
    tracer;
    instance;
  }
