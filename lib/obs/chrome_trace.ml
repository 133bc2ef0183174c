(* Chrome trace-event ("JSON array") exporter, loadable in Perfetto and
   chrome://tracing. Each job becomes one process: its timeline series
   become counter tracks (ph "C"), its flight-recorder events become
   instant events (ph "i"), its packet lifecycle spans become duration
   events (ph "X") on one thread per hop, and one duration event spans
   the whole run so the process row has visible extent. Timestamps are
   virtual seconds scaled to microseconds, the format's native unit.

   Metadata events ("M") come first, in job order; every other event is
   stable-sorted on (ts, pid, tid) so the document is globally
   time-ordered while same-timestamp events keep their emission order. *)

(* Microseconds, kept at nanosecond resolution. *)
let ts_of seconds = Json.Float (Float.round (seconds *. 1e9) /. 1e3)

let track_name s =
  match Timeline.labels s with
  | [] -> Timeline.name s
  | labels ->
      Printf.sprintf "%s{%s}" (Timeline.name s)
        (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels))

let severity_arg = function
  | Recorder.Debug -> "debug"
  | Recorder.Info -> "info"
  | Recorder.Warn -> "warn"
  | Recorder.Error -> "error"

(* Span threads start here; tid 0 is the process track, tid 1 the
   flight-recorder instants. *)
let span_tid_base = 2

type ev = { ev_ts : float; ev_pid : int; ev_tid : int; ev_json : Json.t }

let to_string jobs =
  let meta = ref [] in
  let metadata name ~pid ~tid arg =
    meta :=
      Json.Obj
        [
          ("name", Json.Str name);
          ("ph", Json.Str "M");
          ("pid", Json.Int pid);
          ("tid", Json.Int tid);
          ("args", Json.Obj [ ("name", Json.Str arg) ]);
        ]
      :: !meta
  in
  let events = ref [] in
  let event ~ts ~pid ~tid members =
    events := { ev_ts = ts; ev_pid = pid; ev_tid = tid; ev_json = Json.Obj members } :: !events
  in
  List.iteri
    (fun i (job_name, timeline, recorder, span) ->
      let pid = i + 1 in
      metadata "process_name" ~pid ~tid:0 job_name;
      (* Span of the whole job, for a visible process row. *)
      let t_min = ref infinity and t_max = ref neg_infinity in
      let see t =
        if t < !t_min then t_min := t;
        if t > !t_max then t_max := t
      in
      Option.iter
        (fun tl ->
          List.iter
            (fun s -> Array.iter (fun (t, _) -> see t) (Timeline.points s))
            (Timeline.all_series tl))
        timeline;
      Option.iter
        (fun r -> List.iter (fun (e : Recorder.event) -> see e.at) (Recorder.events r))
        recorder;
      Option.iter
        (fun sp ->
          List.iter
            (fun (r : Span.record) ->
              see r.Span.t_enq;
              if Float.is_finite r.Span.t_rx then see r.Span.t_rx)
            (Span.completed sp))
        span;
      if !t_max >= !t_min then
        event ~ts:!t_min ~pid ~tid:0
          [
            ("name", Json.Str job_name);
            ("ph", Json.Str "X");
            ("ts", ts_of !t_min);
            ("dur", ts_of (!t_max -. !t_min));
            ("pid", Json.Int pid);
            ("tid", Json.Int 0);
          ];
      Option.iter
        (fun tl ->
          List.iter
            (fun s ->
              let name = Json.Str (track_name s) in
              Array.iter
                (fun (t, v) ->
                  (* Trace viewers reject null counters; plot them as 0. *)
                  let v = if Float.is_finite v then v else 0.0 in
                  event ~ts:t ~pid ~tid:0
                    [
                      ("name", name);
                      ("ph", Json.Str "C");
                      ("ts", ts_of t);
                      ("pid", Json.Int pid);
                      ("args", Json.Obj [ ("value", Json.Float v) ]);
                    ])
                (Timeline.points s))
            (Timeline.all_series tl))
        timeline;
      Option.iter
        (fun r ->
          List.iter
            (fun (e : Recorder.event) ->
              let args =
                ("point", e.point) :: ("severity", severity_arg e.severity) :: e.fields
              in
              event ~ts:e.at ~pid ~tid:1
                [
                  ("name", Json.Str (e.kind ^ ":" ^ e.detail));
                  ("ph", Json.Str "i");
                  ("ts", ts_of e.at);
                  ("pid", Json.Int pid);
                  ("tid", Json.Int 1);
                  ("s", Json.Str "p");
                  ("args", Json.Obj (Json.string_members args));
                ])
            (Recorder.events r))
        recorder;
      Option.iter
        (fun sp ->
          (* One thread per hop, numbered in first-appearance order so
             the assignment is deterministic. *)
          let hop_tids : (string, int) Hashtbl.t = Hashtbl.create 8 in
          let next_tid = ref span_tid_base in
          let tid_of hop =
            match Hashtbl.find_opt hop_tids hop with
            | Some tid -> tid
            | None ->
                let tid = !next_tid in
                incr next_tid;
                Hashtbl.add hop_tids hop tid;
                metadata "thread_name" ~pid ~tid ("hop: " ^ hop);
                tid
          in
          List.iter
            (fun (r : Span.record) ->
              let tid = tid_of r.Span.hop in
              let phase name lo delay =
                match delay with
                | Some d when d >= 0.0 ->
                    event ~ts:lo ~pid ~tid
                      [
                        ("name", Json.Str name);
                        ("ph", Json.Str "X");
                        ("ts", ts_of lo);
                        ("dur", ts_of d);
                        ("pid", Json.Int pid);
                        ("tid", Json.Int tid);
                        ( "args",
                          Json.Obj
                            [
                              ("hop", Json.Str r.Span.hop);
                              ("uid", Json.Int r.Span.uid);
                              ("flow", Json.Int r.Span.flow);
                              ("seq", Json.Int r.Span.seq);
                              ("kind", Json.Str r.Span.kind);
                              ("outcome", Json.Str (Span.outcome_to_string r.Span.outcome));
                            ] );
                      ]
                | Some _ | None -> ()
              in
              phase "queue" r.Span.t_enq (Span.queue_delay r);
              phase "serialize" r.Span.t_deq (Span.serialize_delay r);
              phase "propagate" r.Span.t_tx (Span.propagate_delay r))
            (Span.completed sp))
        span)
    jobs;
  let sorted =
    List.stable_sort
      (fun a b ->
        let c = Float.compare a.ev_ts b.ev_ts in
        if c <> 0 then c
        else
          let c = compare a.ev_pid b.ev_pid in
          if c <> 0 then c else compare a.ev_tid b.ev_tid)
      (List.rev !events)
  in
  (* One event per line, so the document diffs and greps line by line. *)
  let lines = List.rev_append !meta (List.map (fun e -> e.ev_json) sorted) in
  "[\n" ^ String.concat ",\n" (List.map Json.to_line lines) ^ "\n]\n"
