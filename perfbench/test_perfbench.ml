(* The benchmark's own tests: tracing (which also swaps the library's
   dumbbell for the benchmark's own composition of it), slicing and the
   host-speed probes must not change a simulation, the tracer's
   boundary mirrors must match the TCP state they stand for, the
   correctness checks must trip on broken accounting, and every run
   seed must map to recorded digests.
   Runs are shortened to a few simulated seconds.

   dune build --profile perfbench @perfbench/perftest *)

open Perfbench
module Tcp = Ccsim_tcp
module Net = Ccsim_net

let horizon_s = 5
let seed = 7

let run ?traced ?sliced ?probed kind = Job.run ?traced ?sliced ?probed ~horizon_s kind ~seed

let sound (job : Job.t) =
  Alcotest.(check (list string)) "invariants hold" [] job.violations

let same_digest what (a : Job.t) (b : Job.t) =
  sound a;
  sound b;
  Alcotest.(check string) what a.digest b.digest

let per_workload f =
  List.map
    (fun kind -> Alcotest.test_case (Workloads.name kind) `Quick (fun () -> f kind))
    Workloads.all

let traced_equals_untraced kind =
  same_digest "traced digest" (run ~traced:false kind) (run ~traced:true kind)

let sliced_equals_one_shot kind =
  same_digest "sliced digest" (run ~sliced:false kind) (run ~sliced:true kind)

(* The probes run between slices and allocate; neither may reach the
   simulation or the run's allocation count. *)
let probed_equals_unprobed kind =
  let plain = run kind and probed = run ~probed:true kind in
  same_digest "probed digest" plain probed;
  Alcotest.(check (float 0.0)) "alloc words" plain.sample.alloc_words probed.sample.alloc_words;
  Alcotest.(check bool) "probes timed" true (probed.sample.probe_s > 0.0)

let tracer_mirrors_tcp_state () =
  let job = run ~traced:true Workloads.Bulk_deep_buffer in
  let t = Option.get job.tracer in
  Array.iter
    (fun (c : Tcp.Connection.t) ->
      Alcotest.(check int) "inflight mirror" (Tcp.Sender.inflight c.sender)
        (Tracer.inflight t ~flow:c.flow);
      Alcotest.(check int) "receiver mirror" (Tcp.Receiver.bytes_received c.receiver)
        (Tracer.rcv_point t ~flow:c.flow))
    job.instance.conns;
  Alcotest.(check bool) "acks traced" true (t.acks > 0);
  Alcotest.(check int) "retransmissions"
    (Array.fold_left
       (fun acc (c : Tcp.Connection.t) -> acc + Tcp.Sender.segs_retrans c.sender)
       0 job.instance.conns)
    t.retrans_segs

let conservation_trips () =
  let q = Net.Fifo.create () in
  ignore (q.enqueue (Net.Packet.data ~flow:0 ~seq:0 ~payload_bytes:1000 ~sent_at:0.0 ()));
  Alcotest.(check (list string)) "sound qdisc" [] (Workloads.qdisc_conservation q);
  q.stats.enqueued <- q.stats.enqueued + 1;
  Alcotest.(check bool) "lost packet caught" true (Workloads.qdisc_conservation q <> [])

let reference_rejects_bad_files () =
  let is_error = function Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "missing file" true (is_error (Reference.load "no-such-digests.txt"));
  let path = Filename.temp_file ~temp_dir:"." "digests" ".txt" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "mice-fq 3 0123456789abcdef0123456789abcdef\nmice-fq three x\n");
  let loaded = Reference.load path in
  Sys.remove path;
  Alcotest.(check bool) "unparsable line" true (is_error loaded)

(* Every trajectory any run seed maps to has a recorded digest. *)
let reference_covers_every_seed () =
  match Reference.load "digests.txt" with
  | Error msg -> Alcotest.fail msg
  | Ok tbl ->
      List.iter
        (fun kind ->
          List.iter
            (fun seed ->
              for round = 0 to Reference.trajectories - 1 do
                let t = Reference.trajectory_seed ~seed round in
                if not (Hashtbl.mem tbl (Workloads.name kind, t)) then
                  Alcotest.failf "%s: seed %d trajectory %d unrecorded" (Workloads.name kind)
                    seed t
              done)
            [ -7; 0; 19; 20; 41; 123_457; Reference.held_out_seed ])
        Workloads.all

let calibration_is_allocation_free () =
  let c = Tracer.calibrate () in
  Alcotest.(check (float 0.0)) "words per empty span" 0.0 c.words;
  Alcotest.(check bool) "span costs time" true (c.span_ns > 0.0)

let () =
  Alcotest.run "perfbench"
    [
      ("traced = untraced", per_workload traced_equals_untraced);
      ("sliced = one-shot", per_workload sliced_equals_one_shot);
      ("probed = unprobed", per_workload probed_equals_unprobed);
      ( "tracer",
        [
          Alcotest.test_case "mirrors TCP state" `Quick tracer_mirrors_tcp_state;
          Alcotest.test_case "empty span allocates nothing" `Quick
            calibration_is_allocation_free;
        ] );
      ( "checks",
        [
          Alcotest.test_case "qdisc conservation trips" `Quick conservation_trips;
          Alcotest.test_case "bad digests file is an error" `Quick reference_rejects_bad_files;
          Alcotest.test_case "digests cover every run seed" `Quick reference_covers_every_seed;
        ] );
    ]
