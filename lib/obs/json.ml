type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let string_members kvs = List.map (fun (k, v) -> (k, Str v)) kvs

(* --- printer -------------------------------------------------------------- *)

let shortest v =
  if not (Float.is_finite v) then "null"
  else
    let s = Printf.sprintf "%.12g" v in
    if Float.equal (float_of_string s) v then s else Printf.sprintf "%.17g" v

(* Integral floats at or past 1e15 can spell as bare digits under %.17g
   (2^53 is "9007199254740992"); the ".0" keeps them reading back as
   floats. *)
let float_spelling v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else
    let s = shortest v in
    if Float.is_finite v && not (String.exists (function '.' | 'e' -> true | _ -> false) s)
    then s ^ ".0"
    else s

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write ~sep ~colon buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float v -> Buffer.add_string buf (float_spelling v)
  | Str s -> add_string buf s
  | Arr vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf sep;
          write ~sep ~colon buf v)
        vs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf sep;
          add_string buf k;
          Buffer.add_string buf colon;
          write ~sep ~colon buf v)
        kvs;
      Buffer.add_char buf '}'

let print ~sep ~colon v =
  let buf = Buffer.create 256 in
  write ~sep ~colon buf v;
  Buffer.contents buf

let to_line v = print ~sep:"," ~colon:":" v

let add_line buf v =
  write ~sep:"," ~colon:":" buf v;
  Buffer.add_char buf '\n'
let to_string v = print ~sep:", " ~colon:": " v

(* --- reader --------------------------------------------------------------- *)

(* Deeper nesting than any ccsim artifact has is rejected rather than
   recursed into, so hostile input cannot exhaust the stack. *)
let max_depth = 512

let hex_value = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* UTF-8 of a basic-plane code point, the range "\uXXXX" spans. *)
let add_utf8 buf code =
  let byte b = Buffer.add_char buf (Char.chr b) in
  if code < 0x80 then byte code
  else if code < 0x800 then begin
    byte (0xC0 lor (code lsr 6));
    byte (0x80 lor (code land 0x3F))
  end
  else begin
    byte (0xE0 lor (code lsr 12));
    byte (0x80 lor ((code lsr 6) land 0x3F));
    byte (0x80 lor (code land 0x3F))
  end

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if !pos < n && Char.equal s.[!pos] c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.equal (String.sub s !pos l) lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  (* The four hex digits after "\u"; [pos] is on the first. *)
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let code = ref 0 in
    for i = 0 to 3 do
      let d = hex_value s.[!pos + i] in
      if d < 0 then fail "bad hex digit in \\u escape";
      code := (!code lsl 4) lor d
    done;
    pos := !pos + 4;
    !code
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail "unterminated escape";
          let c = s.[!pos] in
          advance ();
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' -> add_utf8 buf (hex4 ())
          | c -> fail (Printf.sprintf "bad escape \\%c" c));
          loop ()
      | c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      advance ()
    done;
    if !pos = start then fail "expected a value";
    let lit = String.sub s start (!pos - start) in
    let int =
      if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) lit then None
      else int_of_string_opt lit
    in
    match int with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt lit with Some v -> Float v | None -> fail "malformed number")
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if Option.equal Char.equal (peek ()) (Some '}') then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((key, v) :: acc)
            | _ -> fail "expected , or } in object"
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if Option.equal Char.equal (peek ()) (Some ']') then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ] in array"
          in
          Arr (elements [])
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v
