(* Fluid-engine throughput benchmark: how many flows the fluid backend
   steps per wall-second at population scales the packet engine cannot
   touch (10^2 / 10^4 / 10^6 flows), writing BENCH_fluid.json.

   The populations mirror the p1 access-link shape (two flows per
   100 Mbit/s link, mixed CCAs, half the flows on/off) but run without
   instruments, so the numbers measure the stepping core: one Euler
   pass over the ODE state plus the queue/accounting settle pass per
   20 ms step. Wall time comes from the sanctioned
   Ccsim_runner.Telemetry clock.

   Usage: fluid_bench [OUT.json] [DATE] *)

module R = Ccsim_runner
module Fl = Ccsim_fluid
module U = Ccsim_util
module Json = Ccsim_obs.Json

let duration_s = 10.0
let dt_s = 0.02

let build ~flows ~seed =
  let models = [| Fl.Fluid_model.Cubic; Fl.Fluid_model.Bbr; Fl.Fluid_model.Reno |] in
  let engine = Fl.Fluid_engine.create ~dt_s ~seed () in
  let rng = U.Rng.create (seed + 1) in
  let nlinks = Int.max 1 (flows / 2) in
  let links =
    Array.init nlinks (fun _ ->
        Fl.Fluid_engine.add_link engine ~capacity_bps:(U.Units.mbps 100.0)
          ~buffer_bytes:625_000)
  in
  for i = 0 to flows - 1 do
    let link = links.(i mod nlinks) in
    let model = models.(i mod Array.length models) in
    let rtt_base_s = U.Rng.uniform rng ~lo:0.015 ~hi:0.08 in
    let on_off_s =
      if i mod 2 = 0 then None
      else
        Some (U.Rng.uniform rng ~lo:2.0 ~hi:8.0, U.Rng.uniform rng ~lo:4.0 ~hi:24.0)
    in
    ignore
      (Fl.Fluid_engine.add_flow engine ~link ~model ~rtt_base_s
         ~cap_bps:(U.Units.mbps 40.0) ?on_off_s ())
  done;
  engine

type sample = {
  flows : int;
  links : int;
  steps : int;
  build_wall_s : float;
  run_wall_s : float;
}

let run_scale ~flows ~seed =
  let t0 = R.Telemetry.now_s () in
  let engine = build ~flows ~seed in
  let t1 = R.Telemetry.now_s () in
  Fl.Fluid_engine.run engine ~until_s:duration_s;
  let t2 = R.Telemetry.now_s () in
  {
    flows;
    links = Fl.Fluid_engine.links engine;
    steps = int_of_float (Float.round (duration_s /. dt_s));
    build_wall_s = t1 -. t0;
    run_wall_s = t2 -. t1;
  }

let sample_json s =
  let flow_steps = float_of_int s.flows *. float_of_int s.steps in
  Json.Obj
    [
      ("flows", Json.Int s.flows);
      ("links", Json.Int s.links);
      ("steps", Json.Int s.steps);
      ("sim_horizon_s", Json.Float duration_s);
      ("build_wall_s", Json.Float s.build_wall_s);
      ("run_wall_s", Json.Float s.run_wall_s);
      ("flow_steps_per_wall_s", Json.Float (flow_steps /. Float.max 1e-9 s.run_wall_s));
      ("flows_per_wall_s", Json.Float (float_of_int s.flows /. Float.max 1e-9 s.run_wall_s));
    ]

let () =
  let out = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_fluid.json" in
  let date = if Array.length Sys.argv > 2 then Sys.argv.(2) else "unknown" in
  let scales = [ 100; 10_000; 1_000_000 ] in
  let samples =
    List.map
      (fun flows ->
        let s = run_scale ~flows ~seed:42 in
        Printf.eprintf "fluid_bench: %d flows: build %.3fs, run %.3fs\n%!" s.flows
          s.build_wall_s s.run_wall_s;
        s)
      scales
  in
  let json =
    Json.to_string
      (Json.Obj
         [
           ("schema", Json.Str "ccsim-bench-fluid/1");
           ( "bench",
             Json.Str
               (Printf.sprintf
                  "fluid engine stepping (Euler, dt %g s, %g s horizon, p1-like population)"
                  dt_s duration_s) );
           ("date", Json.Str date);
           ("scales", Json.Arr (List.map sample_json samples));
         ])
    ^ "\n"
  in
  let oc = open_out_bin out in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc json)
