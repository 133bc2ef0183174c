(* Outside-in layer tracing.

   The benchmark wraps the closures it hands to each layer (the
   dispatch sinks in front of senders and receivers, the CCA record's
   handlers, every qdisc record, every [Link.send], every fluid step)
   in a span. A span reads the monotonic clock and [Gc.minor_words] on
   entry and exit; nested spans are kept on a fixed stack so a layer's
   self time is its span minus the spans of the layers it called.
   Everything is aggregated in memory per layer: a span neither
   allocates nor prints, and the report is built once at the end.

   The tracer also keeps the few counters that are only visible at
   those boundaries: receiver out-of-order arrivals, retransmissions, and
   a per-flow mirror of the sender's [snd_nxt]/[snd_una] (the highest
   byte transmitted, the highest cumulative ack handled) from which
   [Sender.inflight] is sampled at every wrapped ack. *)

(* CLOCK_MONOTONIC through bechamel.monotonic_clock's C stub, declared
   here so the read is unboxed and allocation-free. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

type layer = Sender | Receiver | Cca | Qdisc | Link | Fluid | Calibration

let index = function
  | Sender -> 0
  | Receiver -> 1
  | Cca -> 2
  | Qdisc -> 3
  | Link -> 4
  | Fluid -> 5
  | Calibration -> 6

let nlayers = 7
let traced_layers = [ Sender; Receiver; Cca; Qdisc; Link; Fluid ]

let name = function
  | Sender -> "tcp.sender"
  | Receiver -> "tcp.receiver"
  | Cca -> "cca"
  | Qdisc -> "net.qdisc"
  | Link -> "net.link"
  | Fluid -> "fluid"
  | Calibration -> "calibration"

let max_depth = 64

(* A growable int array indexed by a non-negative key (flow ids, depth
   values); reads past the end are 0. *)
module Ints = struct
  type t = { mutable a : int array }

  let create () = { a = Array.make 64 0 }
  let get t i = if i < Array.length t.a then t.a.(i) else 0

  let set t i v =
    if i >= Array.length t.a then begin
      let a = Array.make (Int.max (i + 1) (2 * Array.length t.a)) 0 in
      Array.blit t.a 0 a 0 (Array.length t.a);
      t.a <- a
    end;
    t.a.(i) <- v

  let incr t i = set t i (get t i + 1)
end

type t = {
  calls : int array;
  self_ns : int array;
  self_words : float array;
  child_calls : int array;  (* direct child spans, for calibration *)
  (* span stack *)
  st_layer : int array;
  st_t0 : int array;
  st_w0 : float array;
  st_child_ns : int array;
  st_child_w : float array;
  mutable depth : int;
  (* boundary counters *)
  mutable acks : int;
  mutable data_pkts : int;
  mutable ooo_pkts : int;
  mutable retrans_segs : int;
  mutable enqueues : int;
  mutable dequeues : int;
  mutable sends : int;
  mutable steps : int;
  snd_nxt : Ints.t;  (* per flow: highest byte transmitted *)
  snd_una : Ints.t;  (* per flow: highest cumulative ack the sender handled *)
  rcv_nxt : Ints.t;  (* per flow: the receiver's last cumulative ack *)
  inflight_hist : Ints.t;  (* samples of Sender.inflight / MSS *)
  pending_hist : Ints.t;  (* samples of Sim.pending at top-level spans *)
  mutable pending_of : unit -> int;
}

let create () =
  {
    calls = Array.make nlayers 0;
    self_ns = Array.make nlayers 0;
    self_words = Array.make nlayers 0.0;
    child_calls = Array.make nlayers 0;
    st_layer = Array.make max_depth 0;
    st_t0 = Array.make max_depth 0;
    st_w0 = Array.make max_depth 0.0;
    st_child_ns = Array.make max_depth 0;
    st_child_w = Array.make max_depth 0.0;
    depth = 0;
    acks = 0;
    data_pkts = 0;
    ooo_pkts = 0;
    retrans_segs = 0;
    enqueues = 0;
    dequeues = 0;
    sends = 0;
    steps = 0;
    snd_nxt = Ints.create ();
    snd_una = Ints.create ();
    rcv_nxt = Ints.create ();
    inflight_hist = Ints.create ();
    pending_hist = Ints.create ();
    pending_of = (fun () -> 0);
  }

(* The event-queue depth is sampled whenever the engine enters a traced
   layer from its own loop (a top-level span). *)
let set_pending_probe t f = t.pending_of <- f

let enter t layer =
  let d = t.depth in
  if d = 0 then Ints.incr t.pending_hist (t.pending_of ());
  t.st_layer.(d) <- index layer;
  t.st_child_ns.(d) <- 0;
  t.st_child_w.(d) <- 0.0;
  t.depth <- d + 1;
  t.st_w0.(d) <- Gc.minor_words ();
  t.st_t0.(d) <- now_ns ()

let leave t =
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  let d = t.depth - 1 in
  t.depth <- d;
  let l = t.st_layer.(d) in
  let dur = t1 - t.st_t0.(d) in
  let dw = w1 -. t.st_w0.(d) in
  t.calls.(l) <- t.calls.(l) + 1;
  t.self_ns.(l) <- t.self_ns.(l) + dur - t.st_child_ns.(d);
  t.self_words.(l) <- t.self_words.(l) +. dw -. t.st_child_w.(d);
  if d > 0 then begin
    let p = d - 1 in
    t.st_child_ns.(p) <- t.st_child_ns.(p) + dur;
    t.st_child_w.(p) <- t.st_child_w.(p) +. dw;
    let pl = t.st_layer.(p) in
    t.child_calls.(pl) <- t.child_calls.(pl) + 1
  end

(* --- wrappers ------------------------------------------------------------- *)

module Packet = Ccsim_net.Packet
module Dispatch = Ccsim_net.Dispatch
module Qdisc = Ccsim_net.Qdisc
module Cca = Ccsim_cca.Cca

let mss = Ccsim_util.Units.mss

(* The sink in front of the reverse dispatch: every ack a sender handles. *)
let sender_sink t d (pkt : Packet.t) =
  let unmatched = Dispatch.unmatched d in
  enter t Sender;
  Dispatch.deliver d pkt;
  leave t;
  if Dispatch.unmatched d = unmatched then begin
    t.acks <- t.acks + 1;
    let f = pkt.flow in
    if pkt.ack > Ints.get t.snd_una f then Ints.set t.snd_una f pkt.ack;
    Ints.incr t.inflight_hist ((Ints.get t.snd_nxt f - Ints.get t.snd_una f) / mss)
  end

(* The sink in front of the forward dispatch: every data packet a
   receiver handles. Out of order means above the receiver's cumulative
   point on entry, read back from the last ack it sent (every data
   packet is acked at once, so that ack carries [bytes_received]). *)
let receiver_sink t d (pkt : Packet.t) =
  let unmatched = Dispatch.unmatched d in
  let ooo = pkt.seq > Ints.get t.rcv_nxt pkt.flow in
  enter t Receiver;
  Dispatch.deliver d pkt;
  leave t;
  if Dispatch.unmatched d = unmatched && Packet.is_data pkt then begin
    t.data_pkts <- t.data_pkts + 1;
    if ooo then t.ooo_pkts <- t.ooo_pkts + 1
  end

(* [Link.send] on any hop. Data packets entering their first hop are a
   sender's transmissions; acks entering the reverse link carry the
   receiver's cumulative point. *)
let link_send t ~first_hop send (pkt : Packet.t) =
  if first_hop then begin
    if Packet.is_data pkt then begin
      let hi = pkt.seq + pkt.payload_bytes in
      if hi > Ints.get t.snd_nxt pkt.flow then Ints.set t.snd_nxt pkt.flow hi;
      if pkt.retx then t.retrans_segs <- t.retrans_segs + 1
    end
    else Ints.set t.rcv_nxt pkt.flow pkt.ack
  end;
  t.sends <- t.sends + 1;
  enter t Link;
  send pkt;
  leave t

let qdisc t (q : Qdisc.t) =
  let enqueue pkt =
    t.enqueues <- t.enqueues + 1;
    enter t Qdisc;
    let ok = q.enqueue pkt in
    leave t;
    ok
  in
  let dequeue () =
    enter t Qdisc;
    let r = q.dequeue () in
    leave t;
    (match r with Some _ -> t.dequeues <- t.dequeues + 1 | None -> ());
    r
  in
  { q with Qdisc.enqueue; dequeue }

(* Wrap a CCA's handlers in place. The sender reads the record's fields
   on every call, so the wrapped closures are the ones it runs. *)
let cca t (c : Cca.t) =
  let on_ack = c.on_ack and on_loss = c.on_loss and on_rto = c.on_rto in
  let on_send = c.on_send in
  c.on_ack <-
    (fun info ->
      enter t Cca;
      on_ack info;
      leave t);
  c.on_loss <-
    (fun info ->
      enter t Cca;
      on_loss info;
      leave t);
  c.on_rto <-
    (fun ~now ->
      enter t Cca;
      on_rto ~now;
      leave t);
  c.on_send <-
    (fun ~now ~bytes ->
      enter t Cca;
      on_send ~now ~bytes;
      leave t);
  c

let fluid_step t step =
  t.steps <- t.steps + 1;
  enter t Fluid;
  step ();
  leave t

(* --- calibration ---------------------------------------------------------- *)

type calibration = {
  span_ns : float;  (* wall cost of one empty span, as seen from outside *)
  self_ns : float;  (* of which the span itself records as self time *)
  words : float;  (* minor words one empty span allocates *)
}

let calibrate () =
  let n = 100_000 in
  let once () =
    let t = create () in
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    for _ = 1 to n do
      enter t Calibration;
      leave t
    done;
    let t1 = now_ns () in
    let w1 = Gc.minor_words () in
    {
      span_ns = float_of_int (t1 - t0) /. float_of_int n;
      self_ns = float_of_int t.self_ns.(index Calibration) /. float_of_int n;
      words = (w1 -. w0) /. float_of_int n;
    }
  in
  (* The cheapest of a few repetitions: interruptions only add. *)
  let runs = List.init 5 (fun _ -> once ()) in
  List.fold_left (fun a b -> if b.span_ns < a.span_ns then b else a) (List.hd runs) runs

(* Self time and words per layer with the wrapper's own cost taken
   out: each span's recorded self time carries [self_ns] of clock
   reads, and each direct child adds the rest of an empty span to its
   parent. *)
let corrected_self_ns (t : t) (c : calibration) layer =
  let i = index layer in
  let ns =
    float_of_int t.self_ns.(i)
    -. (float_of_int t.calls.(i) *. c.self_ns)
    -. (float_of_int t.child_calls.(i) *. (c.span_ns -. c.self_ns))
  in
  Float.max 0.0 ns

let corrected_self_words (t : t) (c : calibration) layer =
  let i = index layer in
  Float.max 0.0
    (t.self_words.(i) -. (float_of_int (t.calls.(i) + t.child_calls.(i)) *. c.words))

let calls (t : t) layer = t.calls.(index layer)

let total_spans t =
  List.fold_left (fun acc l -> acc + calls t l) 0 traced_layers

(* --- histogram summaries -------------------------------------------------- *)

let hist_count (h : Ints.t) = Array.fold_left ( + ) 0 h.a

let hist_mean (h : Ints.t) =
  let n = hist_count h in
  if n = 0 then 0.0
  else begin
    let s = ref 0 in
    Array.iteri (fun v c -> s := !s + (v * c)) h.a;
    float_of_int !s /. float_of_int n
  end

let hist_quantile (h : Ints.t) q =
  let n = hist_count h in
  if n = 0 then 0
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    let rec go v acc =
      let acc = acc + h.a.(v) in
      if acc >= rank || v = Array.length h.a - 1 then v else go (v + 1) acc
    in
    go 0 0
  end

let inflight_segs_mean t = hist_mean t.inflight_hist
let inflight_segs_p99 t = hist_quantile t.inflight_hist 0.99
let pending_p99 t = hist_quantile t.pending_hist 0.99

let ooo_frac t =
  if t.data_pkts = 0 then 0.0 else float_of_int t.ooo_pkts /. float_of_int t.data_pkts

(* Mirrors exposed for the benchmark's own tests. *)
let inflight t ~flow = Ints.get t.snd_nxt flow - Ints.get t.snd_una flow
let rcv_point t ~flow = Ints.get t.rcv_nxt flow
