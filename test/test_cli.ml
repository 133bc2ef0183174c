(* The ccsim CLI's exit-code contract (README "Fault injection &
   chaos"): 0 ok, 1 job/verdict failure, 2 usage error, 124 deadline or
   unsupported backend. Regression-tested against the real binary —
   cmdliner 1.3.0 hard-codes 124 for option-converter failures, so the
   CLI maps codes itself and this suite pins the mapping. *)

(* The binary sits next to this test in the build tree
   (_build/default/{test,bin}); resolving via the running executable
   works under both `dune runtest` and `dune exec` from the root. *)
let binary =
  Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat ".." "bin/ccsim.exe")

let ccsim args = Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" (Filename.quote binary) args)

let check_code name args expected =
  Alcotest.(check int) (Printf.sprintf "%s: `ccsim %s`" name args) expected (ccsim args)

let test_ok () =
  check_code "listing runs clean" "list" 0;
  check_code "version runs clean" "--version" 0

let test_usage_errors () =
  check_code "unknown command" "no-such-command" 2;
  check_code "unknown flag" "e4 --bogus-flag" 2;
  check_code "malformed float" "e4 --duration abc" 2;
  check_code "malformed fault plan" "e4 --faults bogus" 2;
  check_code "fault plan with bad field" "e4 --faults \"outage at=1\"" 2;
  check_code "unknown sweep experiment" "sweep nope --seeds 1,2" 2

let test_job_failure () =
  (* duration <= warmup makes Scenario.make raise: the job fails, the
     run completes, and the CLI reports a job failure. *)
  check_code "invalid scenario" "fig1 --duration 2" 1

let test_unsupported_backend () =
  check_code "packet-only experiment on fluid backend" "e1 --backend fluid" 124

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_flight_rec_level () =
  (* --flight-rec-level raises the recorder's severity floor: a journal
     captured at `warn` must drop the debug/info event bulk (packet
     lifecycle, CCA decisions) a default capture keeps. *)
  let tmp = Filename.temp_file "ccsim_flight" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      check_code "flight journal at default level"
        (Printf.sprintf "e4 --duration 7 --flight-rec %s" (Filename.quote tmp))
        0;
      let full = read_file tmp in
      Alcotest.(check bool) "default keeps debug events" true
        (contains ~sub:"\"severity\":\"debug\"" full);
      check_code "flight journal at warn level"
        (Printf.sprintf "e4 --duration 7 --flight-rec %s --flight-rec-level warn"
           (Filename.quote tmp))
        0;
      let filtered = read_file tmp in
      Alcotest.(check bool) "warn floor drops debug" false
        (contains ~sub:"\"severity\":\"debug\"" filtered);
      Alcotest.(check bool) "warn floor drops info" false
        (contains ~sub:"\"severity\":\"info\"" filtered);
      Alcotest.(check bool) "filtered journal is smaller" true
        (String.length filtered < String.length full);
      check_code "bad level is a usage error" "e4 --flight-rec-level loud" 2)

let test_malformed_series_file () =
  (* A bad \u escape in a series file is a usage error for both offline
     readers, not an uncaught exception (which would exit 125). *)
  let tmp = Filename.temp_file "ccsim_series" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out_bin tmp in
      output_string oc "{\"series\":\"x\\uZZZZ\",\"labels\":{},\"t\":1,\"v\":2}\n";
      close_out oc;
      check_code "analyze rejects the file" ("analyze " ^ Filename.quote tmp) 2;
      check_code "explain rejects the file" ("explain " ^ Filename.quote tmp) 2)

let suite =
  [
    Alcotest.test_case "exit 0: success paths" `Quick test_ok;
    Alcotest.test_case "exit 2: usage errors (incl. fault plans)" `Quick test_usage_errors;
    Alcotest.test_case "exit 1: job failure" `Quick test_job_failure;
    Alcotest.test_case "exit 124: unsupported backend" `Quick test_unsupported_backend;
    Alcotest.test_case "exit 2: malformed series file (analyze, explain)" `Quick
      test_malformed_series_file;
    Alcotest.test_case "flight recorder: severity floor flag" `Slow test_flight_rec_level;
  ]
