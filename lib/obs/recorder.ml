module Csv = Ccsim_util.Csv

type severity = Debug | Info | Warn | Error

let severity_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let severity_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type event = {
  at : float;
  severity : severity;
  kind : string;
  point : string;
  detail : string;
  fields : (string * string) list;
}

type t = {
  capacity : int;
  level : severity;
  buffer : event Queue.t;
  mutable total : int;
}

let default_capacity = 200_000

let create ?(capacity = default_capacity) ?(level = Debug) () =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity must be positive";
  { capacity; level; buffer = Queue.create (); total = 0 }

let record t ~at ?(severity = Info) ~kind ~point ?(fields = []) detail =
  if severity_rank severity >= severity_rank t.level then begin
    Queue.push { at; severity; kind; point; detail; fields } t.buffer;
    t.total <- t.total + 1;
    if Queue.length t.buffer > t.capacity then ignore (Queue.pop t.buffer)
  end

let events t = List.of_seq (Queue.to_seq t.buffer)
let count t = t.total
let retained t = Queue.length t.buffer
let evicted t = t.total - Queue.length t.buffer
let filter t ~f = List.filter f (events t)
let by_kind t kind = filter t ~f:(fun e -> String.equal e.kind kind)

let event_to_ndjson buf ?(extra = []) e =
  let fields =
    match e.fields with [] -> [] | fs -> [ ("fields", Json.Obj (Json.string_members fs)) ]
  in
  Json.add_line buf
    (Json.Obj
       (Json.string_members extra
       @ [
           ("at", Json.Float e.at);
           ("severity", Json.Str (severity_to_string e.severity));
           ("class", Json.Str e.kind);
           ("point", Json.Str e.point);
           ("detail", Json.Str e.detail);
         ]
       @ fields))

let to_ndjson ?extra t =
  let buf = Buffer.create 4096 in
  Queue.iter (fun e -> event_to_ndjson buf ?extra e) t.buffer;
  Buffer.contents buf

let to_csv ?(header = true) ?(extra = []) t =
  let buf = Buffer.create 4096 in
  let row cells =
    Buffer.add_string buf (Csv.row_to_string cells);
    Buffer.add_char buf '\n'
  in
  if header then
    row (List.map fst extra @ [ "at"; "severity"; "class"; "point"; "detail"; "fields" ]);
  Queue.iter
    (fun e ->
      let fields = String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) e.fields) in
      row
        (List.map snd extra
        @ [
            Printf.sprintf "%.9f" e.at;
            severity_to_string e.severity;
            e.kind;
            e.point;
            e.detail;
            fields;
          ]))
    t.buffer;
  Buffer.contents buf
