let version = 8

type event =
  | Trace_header of { version : int; program : string }
  | Cell_start of { key : string }
  | Cell_finish of { key : string; status : string }
  | Checkpoint_flush of { key : string; bytes : int }
  | Game_start of {
      adversary : string;
      algorithm : string;
      n : int;
      max_color_calls : int option;
      max_work : int option;
      deadline : float option;
    }
  | Game_verdict of {
      adversary : string;
      algorithm : string;
      n : int;
      outcome : string;
      guaranteed : bool;
      color_calls : int;
      work : int;
    }
  | Step of { executor : string; step : int; target : int; revealed : int }
  | Audit of { executor : string; ok : bool; detail : string }
  | Fault_injected of { tag : string; call : int }
  | Misbehavior of { label : string; detail : string }
  | Child_spawn of { key : string; pid : int; attempt : int }
  | Child_kill of { key : string; pid : int; signal : string; elapsed : float }
  | Child_exit of {
      key : string;
      pid : int;
      status : string;
      cpu_user : float;
      cpu_sys : float;
    }
  | Cell_retry of { key : string; attempt : int; delay : float }
  | Cell_quarantined of { key : string; attempts : int; reason : string }
  | Server_start of { socket : string; jobs : int; queue_limit : int }
  | Conn_open of { conn : int }
  | Conn_close of { conn : int; reason : string }
  | Job_submit of { id : string; kind : string; disposition : string }
  | Job_reject of { id : string; queued : int; limit : int }
  | Job_start of { id : string; attempt : int }
  | Job_done of { id : string; status : string }
  | Server_drain of { queued : int; running : int }
  | Chaos_injected of { kind : string }
  | Canon_hit of { kind : string; key : string }
  | Journal_corrupt of { path : string; line : int; reason : string }

type record = { i : int; w : int; ts : float; ev : event }

(* ------------------------------ schema ------------------------------ *)

type ty = Int | Float | Bool | String | Int_opt | Float_opt
type value = I of int | F of float | B of bool | S of string | Absent
type kind = { tag : string; fields : (string * ty) list; hot : bool }

let kind ?(hot = false) tag fields = { tag; fields; hot }

(* One entry per constructor, in the order of [event]: an event's binary
   id is its position here, so removing or reordering an entry needs a
   [version] bump. *)
let kinds =
  [|
    kind "trace_header" [ ("version", Int); ("program", String) ];
    kind "cell_start" [ ("key", String) ];
    kind "cell_finish" [ ("key", String); ("status", String) ];
    kind "checkpoint_flush" [ ("key", String); ("bytes", Int) ];
    kind "game_start"
      [
        ("adversary", String); ("algorithm", String); ("n", Int);
        ("max_color_calls", Int_opt); ("max_work", Int_opt); ("deadline", Float_opt);
      ];
    kind "game_verdict"
      [
        ("adversary", String); ("algorithm", String); ("n", Int); ("outcome", String);
        ("guaranteed", Bool); ("color_calls", Int); ("work", Int);
      ];
    kind ~hot:true "step"
      [ ("executor", String); ("step", Int); ("target", Int); ("revealed", Int) ];
    kind "audit" [ ("executor", String); ("ok", Bool); ("detail", String) ];
    kind "fault_injected" [ ("tag", String); ("call", Int) ];
    kind "misbehavior" [ ("label", String); ("detail", String) ];
    kind "child_spawn" [ ("key", String); ("pid", Int); ("attempt", Int) ];
    kind "child_kill"
      [ ("key", String); ("pid", Int); ("signal", String); ("elapsed", Float) ];
    kind "child_exit"
      [
        ("key", String); ("pid", Int); ("status", String); ("cpu_user", Float);
        ("cpu_sys", Float);
      ];
    kind "cell_retry" [ ("key", String); ("attempt", Int); ("delay", Float) ];
    kind "cell_quarantined" [ ("key", String); ("attempts", Int); ("reason", String) ];
    kind "server_start" [ ("socket", String); ("jobs", Int); ("queue_limit", Int) ];
    kind "conn_open" [ ("conn", Int) ];
    kind "conn_close" [ ("conn", Int); ("reason", String) ];
    kind "job_submit" [ ("id", String); ("kind", String); ("disposition", String) ];
    kind "job_reject" [ ("id", String); ("queued", Int); ("limit", Int) ];
    kind "job_start" [ ("id", String); ("attempt", Int) ];
    kind "job_done" [ ("id", String); ("status", String) ];
    kind "server_drain" [ ("queued", Int); ("running", Int) ];
    kind "chaos_injected" [ ("kind", String) ];
    kind "canon_hit" [ ("kind", String); ("key", String) ];
    kind "journal_corrupt" [ ("path", String); ("line", Int); ("reason", String) ];
  |]

(* ------------------------------ columns ----------------------------- *)

(* Field values in flat form, one array per column: ints (bools as 0/1),
   floats and strings, plus a presence byte beside each int or float
   cell that holds an option.  A field's index is its position among
   its kind's fields of the same column, and slot [k] of a column
   starts at [k] times the most cells any kind needs there — compact,
   because the flight ring's footprint competes with the game it
   records for cache. *)
type columns = {
  ints : int array;
  floats : float array;
  strs : string array;
  int_set : Bytes.t;
  float_set : Bytes.t;
  (* where the slot being stored starts in [ints], [floats] and [strs] *)
  mutable bi : int;
  mutable bf : int;
  mutable bs : int;
}

(* The most fields of one column any kind has. *)
let width column =
  let count k = List.length (List.filter (fun (_, ty) -> column ty) k.fields) in
  Array.fold_left (fun m k -> max m (count k)) 0 kinds

let int_width = width (function Int | Bool | Int_opt -> true | _ -> false)
let float_width = width (function Float | Float_opt -> true | _ -> false)
let str_width = width (( = ) String)

let columns n =
  {
    ints = Array.make (n * int_width) 0;
    floats = Array.make (n * float_width) 0.0;
    strs = Array.make (n * str_width) "";
    int_set = Bytes.make (n * int_width) '\000';
    float_set = Bytes.make (n * float_width) '\000';
    bi = 0;
    bf = 0;
    bs = 0;
  }

(* Inlined, and indexed from fixed slot bases rather than moving
   cursors: [store] is the flight ring's per-event hot path. *)
let[@inline] put_int c j n = c.ints.(c.bi + j) <- n
let[@inline] put_float c j f = c.floats.(c.bf + j) <- f
let[@inline] put_str c j s = c.strs.(c.bs + j) <- s
let[@inline] put_bool c j b = put_int c j (Bool.to_int b)

let put_opt_int c j = function
  | None -> Bytes.set c.int_set (c.bi + j) '\000'
  | Some n ->
      Bytes.set c.int_set (c.bi + j) '\001';
      put_int c j n

let put_opt_float c j = function
  | None -> Bytes.set c.float_set (c.bf + j) '\000'
  | Some f ->
      Bytes.set c.float_set (c.bf + j) '\001';
      put_float c j f

let store c k ev =
  c.bi <- k * int_width;
  c.bf <- k * float_width;
  c.bs <- k * str_width;
  match ev with
  | Trace_header { version; program } -> put_int c 0 version; put_str c 0 program; 0
  | Cell_start { key } -> put_str c 0 key; 1
  | Cell_finish { key; status } -> put_str c 0 key; put_str c 1 status; 2
  | Checkpoint_flush { key; bytes } -> put_str c 0 key; put_int c 0 bytes; 3
  | Game_start { adversary; algorithm; n; max_color_calls; max_work; deadline } ->
      put_str c 0 adversary; put_str c 1 algorithm; put_int c 0 n;
      put_opt_int c 1 max_color_calls; put_opt_int c 2 max_work;
      put_opt_float c 0 deadline; 4
  | Game_verdict { adversary; algorithm; n; outcome; guaranteed; color_calls; work } ->
      put_str c 0 adversary; put_str c 1 algorithm; put_int c 0 n; put_str c 2 outcome;
      put_bool c 1 guaranteed; put_int c 2 color_calls; put_int c 3 work; 5
  | Step { executor; step; target; revealed } ->
      put_str c 0 executor; put_int c 0 step; put_int c 1 target; put_int c 2 revealed; 6
  | Audit { executor; ok; detail } ->
      put_str c 0 executor; put_bool c 0 ok; put_str c 1 detail; 7
  | Fault_injected { tag; call } -> put_str c 0 tag; put_int c 0 call; 8
  | Misbehavior { label; detail } -> put_str c 0 label; put_str c 1 detail; 9
  | Child_spawn { key; pid; attempt } ->
      put_str c 0 key; put_int c 0 pid; put_int c 1 attempt; 10
  | Child_kill { key; pid; signal; elapsed } ->
      put_str c 0 key; put_int c 0 pid; put_str c 1 signal; put_float c 0 elapsed; 11
  | Child_exit { key; pid; status; cpu_user; cpu_sys } ->
      put_str c 0 key; put_int c 0 pid; put_str c 1 status; put_float c 0 cpu_user;
      put_float c 1 cpu_sys; 12
  | Cell_retry { key; attempt; delay } ->
      put_str c 0 key; put_int c 0 attempt; put_float c 0 delay; 13
  | Cell_quarantined { key; attempts; reason } ->
      put_str c 0 key; put_int c 0 attempts; put_str c 1 reason; 14
  | Server_start { socket; jobs; queue_limit } ->
      put_str c 0 socket; put_int c 0 jobs; put_int c 1 queue_limit; 15
  | Conn_open { conn } -> put_int c 0 conn; 16
  | Conn_close { conn; reason } -> put_int c 0 conn; put_str c 0 reason; 17
  | Job_submit { id; kind; disposition } ->
      put_str c 0 id; put_str c 1 kind; put_str c 2 disposition; 18
  | Job_reject { id; queued; limit } ->
      put_str c 0 id; put_int c 0 queued; put_int c 1 limit; 19
  | Job_start { id; attempt } -> put_str c 0 id; put_int c 0 attempt; 20
  | Job_done { id; status } -> put_str c 0 id; put_str c 1 status; 21
  | Server_drain { queued; running } -> put_int c 0 queued; put_int c 1 running; 22
  | Chaos_injected { kind } -> put_str c 0 kind; 23
  | Canon_hit { kind; key } -> put_str c 0 kind; put_str c 1 key; 24
  | Journal_corrupt { path; line; reason } ->
      put_str c 0 path; put_int c 0 line; put_str c 1 reason; 25

let load c k id =
  let i = ref (k * int_width) and f = ref (k * float_width) and s = ref (k * str_width) in
  let next r =
    let j = !r in
    incr r;
    j
  in
  let get = function
    | Int -> I c.ints.(next i)
    | Bool -> B (c.ints.(next i) <> 0)
    | Float -> F c.floats.(next f)
    | String -> S c.strs.(next s)
    | Int_opt ->
        let j = next i in
        if Bytes.get c.int_set j = '\000' then Absent else I c.ints.(j)
    | Float_opt ->
        let j = next f in
        if Bytes.get c.float_set j = '\000' then Absent else F c.floats.(j)
  in
  (* In field order: [get] advances the counters. *)
  let rec values = function
    | [] -> []
    | (_, ty) :: rest ->
        let v = get ty in
        v :: values rest
  in
  values kinds.(id).fields

let to_values ev =
  let c = columns 1 in
  let id = store c 0 ev in
  (id, load c 0 id)

let decode_error msg = raise (Json.Parse_error msg)

let int_opt = function I n -> Some n | _ -> None
let float_opt = function F f -> Some f | _ -> None

let of_values id values =
  match (id, values) with
  | 0, [ I v; S program ] ->
      if v > version then
        decode_error
          (Printf.sprintf "trace format version %d is newer than this reader (max %d)" v
             version);
      Trace_header { version = v; program }
  | 1, [ S key ] -> Cell_start { key }
  | 2, [ S key; S status ] -> Cell_finish { key; status }
  | 3, [ S key; I bytes ] -> Checkpoint_flush { key; bytes }
  | 4, [ S adversary; S algorithm; I n; calls; work; deadline ] ->
      let max_color_calls = int_opt calls and max_work = int_opt work in
      let deadline = float_opt deadline in
      Game_start { adversary; algorithm; n; max_color_calls; max_work; deadline }
  | 5, [ S adversary; S algorithm; I n; S outcome; B guaranteed; I color_calls; I work ] ->
      Game_verdict { adversary; algorithm; n; outcome; guaranteed; color_calls; work }
  | 6, [ S executor; I step; I target; I revealed ] ->
      Step { executor; step; target; revealed }
  | 7, [ S executor; B ok; S detail ] -> Audit { executor; ok; detail }
  | 8, [ S tag; I call ] -> Fault_injected { tag; call }
  | 9, [ S label; S detail ] -> Misbehavior { label; detail }
  | 10, [ S key; I pid; I attempt ] -> Child_spawn { key; pid; attempt }
  | 11, [ S key; I pid; S signal; F elapsed ] -> Child_kill { key; pid; signal; elapsed }
  | 12, [ S key; I pid; S status; F cpu_user; F cpu_sys ] ->
      Child_exit { key; pid; status; cpu_user; cpu_sys }
  | 13, [ S key; I attempt; F delay ] -> Cell_retry { key; attempt; delay }
  | 14, [ S key; I attempts; S reason ] -> Cell_quarantined { key; attempts; reason }
  | 15, [ S socket; I jobs; I queue_limit ] -> Server_start { socket; jobs; queue_limit }
  | 16, [ I conn ] -> Conn_open { conn }
  | 17, [ I conn; S reason ] -> Conn_close { conn; reason }
  | 18, [ S id; S kind; S disposition ] -> Job_submit { id; kind; disposition }
  | 19, [ S id; I queued; I limit ] -> Job_reject { id; queued; limit }
  | 20, [ S id; I attempt ] -> Job_start { id; attempt }
  | 21, [ S id; S status ] -> Job_done { id; status }
  | 22, [ I queued; I running ] -> Server_drain { queued; running }
  | 23, [ S kind ] -> Chaos_injected { kind }
  | 24, [ S kind; S key ] -> Canon_hit { kind; key }
  | 25, [ S path; I line; S reason ] -> Journal_corrupt { path; line; reason }
  | _ -> decode_error (Printf.sprintf "trace record: values do not fit event id %d" id)

let anomalous = function
  | Misbehavior _ | Cell_quarantined _ | Child_kill _ | Fault_injected _ -> true
  | Audit { ok; _ } -> not ok
  | _ -> false

(* ---------------------------- NDJSON codec ---------------------------- *)

let json_of_value = function
  | I n -> Json.Int n
  | F f -> Json.Float f
  | B b -> Json.Bool b
  | S s -> Json.String s
  | Absent -> Json.Null

let record_to_json r =
  let id, values = to_values r.ev in
  let k = kinds.(id) in
  Json.Obj
    (("i", Json.Int r.i)
    :: ("w", Json.Int r.w)
    :: ("ts", Json.Float r.ts)
    :: ("ev", Json.String k.tag)
    :: List.map2 (fun (name, _) v -> (name, json_of_value v)) k.fields values)

let record_to_string r = Json.to_string (record_to_json r)

(* Field [name] of the record object, read as [ty]; an option field may
   be null or missing. *)
let field j (name, ty) =
  let req what conv v =
    match conv v with
    | Some x -> x
    | None -> decode_error ("trace record: missing " ^ what ^ " field " ^ name)
  in
  let v = Option.value (Json.member name j) ~default:Json.Null in
  match ty with
  | Int -> I (req "int" Json.to_int_opt v)
  | Float -> F (req "float" Json.to_float_opt v)
  | Bool -> B (req "bool" Json.to_bool_opt v)
  | String -> S (req "string" Json.to_string_opt v)
  | Int_opt -> if v = Json.Null then Absent else I (req "int" Json.to_int_opt v)
  | Float_opt -> if v = Json.Null then Absent else F (req "float" Json.to_float_opt v)

let id_of_tag =
  let t = Hashtbl.create 64 in
  Array.iteri (fun id k -> Hashtbl.replace t k.tag id) kinds;
  Hashtbl.find_opt t

let record_of_json j =
  let get name ty = field j (name, ty) in
  match (get "i" Int, get "w" Int, get "ts" Float, get "ev" String) with
  | I i, I w, F ts, S tag -> (
      match id_of_tag tag with
      | None -> decode_error ("trace record: unknown event " ^ tag)
      | Some id -> { i; w; ts; ev = of_values id (List.map (field j) kinds.(id).fields) })
  | _ -> assert false

let read_file path =
  let lines =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> In_channel.input_lines ic)
  in
  List.mapi
    (fun idx line ->
      match record_of_json (Json.of_string line) with
      | r -> r
      | exception Json.Parse_error msg ->
          raise (Json.Parse_error (Printf.sprintf "%s:%d: %s" path (idx + 1) msg)))
    lines

(* ------------------------------- sink ------------------------------- *)

type sink = {
  oc : out_channel;
  mutable seq : int;
  t0 : float;
  mutable error : string option;  (** the first I/O error; set once *)
}

let sink : sink option ref = ref None

(* Secondary in-process consumer (the flight recorder): events flow to
   it after the NDJSON sink, and its presence alone turns [on] true so
   instrumentation sites construct events for it. *)
let hook : (event -> unit) option ref = ref None
let set_hook h = hook := h

let on () = match (!sink, !hook) with None, None -> false | _ -> true

let uninstall s = match !sink with Some s' when s' == s -> sink := None | _ -> ()

(* Observers never raise into the code they observe: the first I/O
   error detaches the sink, and its teardown reports the error. *)
let fail s msg =
  if s.error = None then s.error <- Some msg;
  uninstall s

let write s ~w ~at ev =
  if s.error = None then begin
    let r = { i = s.seq; w; ts = at -. s.t0; ev } in
    s.seq <- s.seq + 1;
    try
      output_string s.oc (record_to_string r);
      output_char s.oc '\n'
    with Sys_error msg -> fail s msg
  end

(* [w] 0 is this process: relayed events carry their worker's slot. *)
let emit ev =
  (match !sink with None -> () | Some s -> write s ~w:0 ~at:(Unix.gettimeofday ()) ev);
  match !hook with None -> () | Some f -> f ev

let relay ~w ~at ev = match !sink with None -> () | Some s -> write s ~w ~at ev

let detach_in_child () =
  let streaming = Option.is_some !sink in
  sink := None;
  hook := None;
  streaming

let with_sink ?(program = Filename.basename Sys.executable_name)
    ?(on_error = fun msg -> raise (Sys_error msg)) ~path f =
  if Option.is_some !sink then
    invalid_arg "Trace.with_sink: a sink is already installed";
  match open_out_bin path with
  | exception Sys_error msg ->
      let v = f () in
      on_error msg;
      v
  | oc ->
      let s = { oc; seq = 0; t0 = Unix.gettimeofday (); error = None } in
      sink := Some s;
      write s ~w:0 ~at:(Unix.gettimeofday ()) (Trace_header { version; program });
      let v =
        Fun.protect
          ~finally:(fun () ->
            uninstall s;
            if s.error = None then (try close_out oc with Sys_error msg -> fail s msg);
            close_out_noerr oc)
          f
      in
      Option.iter on_error s.error;
      v

let with_sink_opt ?program ?on_error path f =
  match path with None -> f () | Some path -> with_sink ?program ?on_error ~path f
