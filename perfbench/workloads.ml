(* The benchmark's three workloads, each built from the simulator's
   public library API with its inputs drawn from the seed.

   A workload is built into an [instance] that the job runner advances
   to absolute simulated times (one-second slices), then digests and
   checks. With a tracer, the same construction hands wrapped closures
   to every layer; without one, the library's own builders and raw
   functions, so the untraced run executes exactly the library's code. *)

module Sim = Ccsim_engine.Sim
module Net = Ccsim_net
module Tcp = Ccsim_tcp
module App = Ccsim_app
module Fl = Ccsim_fluid
module U = Ccsim_util
module Profile = Ccsim_obs.Profile

type kind = Bulk_deep_buffer | Mice_fq | Fluid_population

let all = [ Bulk_deep_buffer; Mice_fq; Fluid_population ]

let name = function
  | Bulk_deep_buffer -> "bulk-deep-buffer"
  | Mice_fq -> "mice-fq"
  | Fluid_population -> "fluid-population"

let of_name s = List.find_opt (fun k -> String.equal (name k) s) all

type instance = {
  horizon_s : int;  (* simulated seconds, run in one-second slices *)
  advance : float -> unit;  (* run to an absolute simulated time *)
  digest : unit -> string;  (* hex digest of the run's results *)
  check : unit -> string list;  (* broken invariants, empty when sound *)
  qdiscs : Net.Qdisc.t list ref;
      (* the bottleneck's qdisc, and in traced jobs every edge and reverse
         FIFO created so far (links are created lazily) *)
  profile : Profile.t option;
  flows_spawned : unit -> int;
  flows_completed : unit -> int;
  fluid_flows : int;
  conns : Tcp.Connection.t array;  (* bulk connections, for the tests *)
}

(* --- result digests ---------------------------------------------------------- *)

let add_int b i =
  Buffer.add_int64_le b (Int64.of_int i)

let add_float b f = Buffer.add_int64_le b (Int64.bits_of_float f)
let hex b = Digest.to_hex (Digest.string (Buffer.contents b))

let add_qdisc b (q : Net.Qdisc.t) =
  let s = q.stats in
  List.iter (add_int b)
    [ s.enqueued; s.dequeued; s.dropped; s.bytes_dropped; q.backlog_packets () ]

(* Every qdisc loses packets only through [Qdisc.drop]: what was
   accepted is dequeued, still queued, or dropped later from inside the
   queue (DRR's longest-queue drop), so the residue lies in
   [0, dropped] — and is 0 for a tail-drop FIFO. *)
let qdisc_conservation (q : Net.Qdisc.t) =
  let s = q.stats in
  let residue = s.enqueued - s.dequeued - q.backlog_packets () in
  if residue < 0 || residue > s.dropped then
    [
      Printf.sprintf "%s: enqueued %d <> dequeued %d + backlog %d + head drops (<= %d)" q.name
        s.enqueued s.dequeued (q.backlog_packets ()) s.dropped;
    ]
  else []

(* --- the dumbbell ------------------------------------------------------------ *)

(* Untraced, the workload runs on [Topology.dumbbell] itself. Traced,
   the benchmark composes the dumbbell from [Link], [Fifo] and
   [Dispatch] in the same shape and creation order as
   [Topology.dumbbell] (no ingress elements, edge and reverse links at
   100x the bottleneck rate), because the library's builder installs
   the edge-to-bottleneck hop inside its own closure. Owning the
   composition puts every [Link.send], every qdisc and both dispatch
   sinks within the tracer's reach. Every traced job's digest is held
   to the untraced reference, which pins the copy to the library. *)
type net = { topo : Net.Topology.t; qdiscs : Net.Qdisc.t list ref }

let dumbbell ?tracer sim ~rate_bps ~delay_s ~qdisc ~edge_delay () =
  match tracer with
  | None ->
      {
        topo = Net.Topology.dumbbell sim ~rate_bps ~delay_s ~qdisc ~edge_delay ();
        qdiscs = ref [ qdisc ];
      }
  | Some t ->
      let qdiscs = ref [] in
      let wrap_qdisc q =
        qdiscs := q :: !qdiscs;
        Tracer.qdisc t q
      in
      let send ~first_hop link = Tracer.link_send t ~first_hop (Net.Link.send link) in
      let fwd_dispatch = Net.Dispatch.create () in
      let rev_dispatch = Net.Dispatch.create () in
      let bottleneck =
        Net.Link.create sim ~name:"bottleneck" ~rate_bps ~delay_s ~qdisc:(wrap_qdisc qdisc)
          ~sink:(Tracer.receiver_sink t fwd_dispatch) ()
      in
      let into_bottleneck = send ~first_hop:false bottleneck in
      let to_senders = Tracer.sender_sink t rev_dispatch in
      let lazily make =
        let entries = Hashtbl.create 16 in
        fun ~flow ->
          match Hashtbl.find_opt entries flow with
          | Some entry -> entry
          | None ->
              let entry = make flow in
              Hashtbl.add entries flow entry;
              entry
      in
      let fwd_entry =
        lazily (fun flow ->
            send ~first_hop:true
              (Net.Link.create sim
                 ~name:(Printf.sprintf "edge:%d" flow)
                 ~rate_bps:(100.0 *. rate_bps) ~delay_s:(edge_delay flow)
                 ~qdisc:(wrap_qdisc (Net.Fifo.create ()))
                 ~sink:into_bottleneck ()))
      in
      let rev_entry =
        lazily (fun flow ->
            send ~first_hop:true
              (Net.Link.create sim
                 ~name:(Printf.sprintf "rev:%d" flow)
                 ~rate_bps:(100.0 *. rate_bps)
                 ~delay_s:(delay_s +. edge_delay flow)
                 ~qdisc:(wrap_qdisc (Net.Fifo.create ~limit_bytes:100_000_000 ()))
                 ~sink:to_senders ()))
      in
      let one_way_delay ~flow = delay_s +. edge_delay flow in
      {
        topo =
          { sim; bottleneck; fwd_dispatch; rev_dispatch; fwd_entry; rev_entry; one_way_delay };
        qdiscs;
      }

let new_sim ?tracer () =
  match tracer with
  | None -> (Sim.create (), None)
  | Some t ->
      let profile = Profile.create () in
      let sim = Sim.create ~profile () in
      Tracer.set_pending_probe t (fun () -> Sim.pending sim);
      (sim, Some profile)

let wrap_cca tracer c = match tracer with None -> c | Some t -> Tracer.cca t c

(* --- bulk-deep-buffer -------------------------------------------------------- *)

(* The first seconds of a4's deepest row: one BBR and one Reno bulk
   flow on a 48 Mbit/s, 50 ms FIFO bottleneck with an 8-BDP buffer, so
   hundreds of segments are in flight at every ack through the
   slow-start overshoot and the long SACK recovery that follows. The
   horizon ends inside a4's 15 s warmup: a4's steady state, where
   BBR's bandwidth filter dominates, is not measured (see README.md). *)
let bulk_rate_bps = U.Units.mbps 48.0
let bulk_rtt_s = 0.05
let bulk_buffer_bdp = 8
let bulk_ccas = [| `Bbr; `Reno |]
let bulk_horizon_s = 7

let bulk ?tracer ~seed () =
  let rng = U.Rng.create seed in
  let sim, profile = new_sim ?tracer () in
  let limit_bytes =
    bulk_buffer_bdp * U.Units.bdp_bytes ~rate_bps:bulk_rate_bps ~rtt_s:bulk_rtt_s
  in
  let nflows = Array.length bulk_ccas in
  (* The seed moves each edge delay within 100 us and each start within
     1 ms: every seed is its own packet-level trajectory, while the
     cost regime (startup overshoot into the deep buffer, then
     recovery) stays the same, so seeds compare. Unlike a4, Reno starts
     0.1 s after BBR: started together, which flow leads the shared
     slow start turns on the sub-millisecond jitter, and the cost of a
     run swings with it (README.md). *)
  let edge_delays = Array.init nflows (fun _ -> U.Rng.uniform rng ~lo:0.001 ~hi:0.0011) in
  let starts =
    Array.init nflows (fun i -> (0.1 *. float_of_int i) +. U.Rng.uniform rng ~lo:0.0 ~hi:0.001)
  in
  let net =
    dumbbell ?tracer sim ~rate_bps:bulk_rate_bps ~delay_s:(bulk_rtt_s /. 2.0)
      ~qdisc:(Net.Fifo.create ~limit_bytes ())
      ~edge_delay:(fun flow -> edge_delays.(flow))
      ()
  in
  let conns =
    Array.mapi
      (fun flow cca ->
        let cca =
          match cca with
          | `Bbr -> Ccsim_cca.Bbr.create ()
          | `Reno -> Ccsim_cca.Reno.create ()
        in
        let conn = Tcp.Connection.establish net.topo ~flow ~cca:(wrap_cca tracer cca) () in
        ignore (App.Bulk.start sim ~sender:conn.sender ~at:starts.(flow) ());
        conn)
      bulk_ccas
  in
  let bottleneck = net.topo.bottleneck in
  let digest () =
    let b = Buffer.create 256 in
    Array.iter
      (fun (c : Tcp.Connection.t) ->
        let s = c.sender and r = c.receiver in
        List.iter (add_int b)
          [
            Tcp.Sender.bytes_acked s;
            Tcp.Sender.bytes_sent s;
            Tcp.Sender.bytes_retrans s;
            Tcp.Sender.segs_retrans s;
            Tcp.Receiver.bytes_received r;
            Tcp.Receiver.acks_sent r;
          ])
      conns;
    add_qdisc b (Net.Link.qdisc bottleneck);
    add_int b (Net.Link.bytes_delivered bottleneck);
    add_float b (Sim.now sim);
    hex b
  in
  let check () =
    let received = ref 0 and sent = ref 0 in
    let per_flow =
      Array.to_list conns
      |> List.concat_map (fun (c : Tcp.Connection.t) ->
             let acked = Tcp.Sender.bytes_acked c.sender in
             let rcvd = Tcp.Receiver.bytes_received c.receiver in
             received := !received + rcvd;
             sent := !sent + Tcp.Sender.bytes_sent c.sender;
             if acked > rcvd then
               [ Printf.sprintf "flow %d: acked %d > received %d" c.flow acked rcvd ]
             else [])
    in
    let capacity = bulk_rate_bps *. Sim.now sim /. 8.0 in
    per_flow
    @ List.concat_map qdisc_conservation !(net.qdiscs)
    @ (if !received > !sent then
         [ Printf.sprintf "received %d bytes > sent %d" !received !sent ]
       else [])
    @ (if float_of_int !received > capacity then
         [ Printf.sprintf "received %d bytes exceeds capacity %.0f" !received capacity ]
       else [])
    @
    if Net.Link.utilization bottleneck ~now:(Sim.now sim) < 0.5 then
      [ "bottleneck under half utilized: the workload is not loading it" ]
    else []
  in
  {
    horizon_s = bulk_horizon_s;
    advance = (fun until -> Sim.run ~until sim);
    digest;
    check;
    qdiscs = net.qdiscs;
    profile;
    flows_spawned = (fun () -> nflows);
    flows_completed = (fun () -> 0);
    fluid_flows = 0;
    conns;
  }

(* --- mice-fq ----------------------------------------------------------------- *)

(* Poisson short flows with bounded-Pareto sizes on a 50 Mbit/s DRR
   bottleneck; the arrival rate loads it to roughly 75%. *)
let mice_rate_bps = U.Units.mbps 50.0
let mice_rtt_s = 0.05
let mice_arrival_rate = 230.0
let mice_max_size_bytes = 1_000_000
let mice_horizon_s = 30
let mice_limit_bytes = 4 * Net.Fifo.default_limit_bytes

let mice ?tracer ~seed () =
  let rng = U.Rng.create seed in
  let sim, profile = new_sim ?tracer () in
  let net =
    dumbbell ?tracer sim ~rate_bps:mice_rate_bps ~delay_s:(mice_rtt_s /. 2.0)
      ~qdisc:(Net.Drr.create ~limit_bytes:mice_limit_bytes ())
      ~edge_delay:(fun _ -> 0.001)
      ()
  in
  let app =
    App.Poisson_flows.start sim net.topo ~rng:(U.Rng.split rng) ~arrival_rate:mice_arrival_rate
      ~max_size_bytes:mice_max_size_bytes
      ~cca:(fun () -> wrap_cca tracer (Ccsim_cca.Reno.create ()))
      ()
  in
  let bottleneck = net.topo.bottleneck in
  let digest () =
    let b = Buffer.create 4096 in
    List.iter
      (fun (r : App.Poisson_flows.flow_record) ->
        List.iter (add_int b)
          [ r.id; r.size_bytes; r.retransmits; Bool.to_int r.fit_in_initial_window ];
        add_float b r.started;
        add_float b (Option.value r.finished ~default:(-1.0)))
      (App.Poisson_flows.flows app);
    add_int b (App.Poisson_flows.spawn_count app);
    add_qdisc b (Net.Link.qdisc bottleneck);
    add_int b (Net.Link.bytes_delivered bottleneck);
    add_float b (Sim.now sim);
    hex b
  in
  let check () =
    let done_ = App.Poisson_flows.completed app in
    let delivered = Net.Link.bytes_delivered bottleneck in
    let completed_bytes =
      List.fold_left (fun acc (r : App.Poisson_flows.flow_record) -> acc + r.size_bytes) 0 done_
    in
    List.concat_map qdisc_conservation !(net.qdiscs)
    @ List.filter_map
        (fun (r : App.Poisson_flows.flow_record) ->
          match r.finished with
          | Some f when f < r.started ->
              Some (Printf.sprintf "flow %d finished at %g before starting at %g" r.id f r.started)
          | Some _ | None -> None)
        done_
    @ (if completed_bytes > delivered then
         [
           Printf.sprintf "completed flows hold %d bytes > %d delivered by the bottleneck"
             completed_bytes delivered;
         ]
       else [])
    @
    if List.length done_ < App.Poisson_flows.spawn_count app / 2 then
      [ "fewer than half the spawned flows completed" ]
    else []
  in
  {
    horizon_s = mice_horizon_s;
    advance = (fun until -> Sim.run ~until sim);
    digest;
    check;
    qdiscs = net.qdiscs;
    profile;
    flows_spawned = (fun () -> App.Poisson_flows.spawn_count app);
    flows_completed = (fun () -> List.length (App.Poisson_flows.completed app));
    fluid_flows = 0;
    conns = [||];
  }

(* --- fluid-population -------------------------------------------------------- *)

(* A p1-shaped population stepped by [Fluid_engine] alone. Plan tiers,
   CCA mix, buffers, RTTs, Pareto demand caps, on/off periods and the
   on/off start phase are drawn as [P1_prevalence.build_population]
   draws them (lib/core/p1_prevalence.ml, which exports none of them);
   unlike p1, every link carries exactly two flows and only every
   second flow is on/off, so the flow count is fixed. *)
let fluid_users = 12_000
let fluid_dt_s = 0.02
let fluid_horizon_s = 20
let tiers_mbps = [| (25.0, 0.25); (100.0, 0.45); (300.0, 0.20); (1000.0, 0.10) |]
let cca_mix = Fl.Fluid_model.[| (Cubic, 0.55); (Bbr, 0.30); (Reno, 0.15) |]

let pick rng choices =
  let u = U.Rng.float rng 1.0 in
  let rec go i acc =
    let v, w = choices.(i) in
    if i = Array.length choices - 1 || u < acc +. w then v else go (i + 1) (acc +. w)
  in
  go 0 0.0

let fluid ?tracer ~seed () =
  let engine = Fl.Fluid_engine.create ~dt_s:fluid_dt_s ~warmup_s:5.0 ~seed () in
  let rng = U.Rng.create (seed lxor 0x9E37) in
  let links =
    Array.init fluid_users (fun user ->
        let plan = U.Units.mbps (pick rng tiers_mbps) in
        let buffer_bytes = Int.max 9000 (int_of_float (0.05 *. plan /. 8.0)) in
        let link = Fl.Fluid_engine.add_link engine ~capacity_bps:plan ~buffer_bytes in
        for i = 0 to 1 do
          let model = pick rng cca_mix in
          let rtt_base_s = U.Rng.uniform rng ~lo:0.015 ~hi:0.08 in
          let cap_bps =
            U.Rng.bounded_pareto rng ~shape:1.2 ~scale:(U.Units.mbps 2.0) ~cap:(1.5 *. plan)
          in
          if (user + i) mod 2 = 0 then
            ignore (Fl.Fluid_engine.add_flow engine ~link ~model ~rtt_base_s ~cap_bps ())
          else begin
            let on_s = U.Rng.uniform rng ~lo:2.0 ~hi:8.0 in
            let off_s = U.Rng.uniform rng ~lo:4.0 ~hi:24.0 in
            let start_active = U.Rng.bernoulli rng ~p:(on_s /. (on_s +. off_s)) in
            ignore
              (Fl.Fluid_engine.add_flow engine ~link ~model ~rtt_base_s ~cap_bps
                 ~on_off_s:(on_s, off_s) ~start_active ())
          end
        done;
        link)
  in
  let nflows = Fl.Fluid_engine.flows engine in
  let advance =
    match tracer with
    | None -> fun until -> Fl.Fluid_engine.run engine ~until_s:until
    | Some t ->
        (* [Fluid_engine.run]'s own loop, with each step wrapped. *)
        let step () = Fl.Fluid_engine.step engine in
        fun until ->
          while Fl.Fluid_engine.now_s engine < until -. (0.5 *. fluid_dt_s) do
            Tracer.fluid_step t step
          done
  in
  let digest () =
    let b = Buffer.create (16 * (nflows + (2 * fluid_users))) in
    let tot = Fl.Fluid_engine.totals engine in
    List.iter (add_float b)
      [ tot.offered_bytes; tot.served_bytes; tot.dropped_bytes; tot.queued_bytes ];
    Array.iter
      (fun l ->
        add_float b (Fl.Fluid_engine.link_served_bytes engine l);
        add_float b (Fl.Fluid_engine.link_contended_s engine l))
      links;
    for i = 0 to nflows - 1 do
      add_float b (Fl.Fluid_engine.flow_goodput_bps engine i)
    done;
    add_float b (Fl.Fluid_engine.now_s engine);
    hex b
  in
  let check () =
    let tot = Fl.Fluid_engine.totals engine in
    let tol = Float.max 64.0 (1e-6 *. tot.offered_bytes) in
    let residue = Fl.Fluid_engine.residual_bytes engine in
    (if Float.abs residue > tol then
       [ Printf.sprintf "population residual %.1f bytes exceeds %.1f" residue tol ]
     else [])
    @ (if tot.served_bytes > tot.offered_bytes then [ "served more than offered" ] else [])
    @ List.filter_map
        (fun l ->
          let r = Fl.Fluid_engine.link_residual_bytes engine l in
          if Float.abs r > tol then
            Some (Printf.sprintf "link %d residual %.1f bytes exceeds %.1f" l r tol)
          else None)
        (Array.to_list links)
  in
  {
    horizon_s = fluid_horizon_s;
    advance;
    digest;
    check;
    qdiscs = ref [];
    profile = None;
    flows_spawned = (fun () -> 0);
    flows_completed = (fun () -> 0);
    fluid_flows = nflows;
    conns = [||];
  }

let build ?tracer kind ~seed =
  match kind with
  | Bulk_deep_buffer -> bulk ?tracer ~seed ()
  | Mice_fq -> mice ?tracer ~seed ()
  | Fluid_population -> fluid ?tracer ~seed ()
