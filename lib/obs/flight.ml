(* ------------------------- binary event codec ------------------------
   One frame per record: tag 'F', 4-byte big-endian payload length,
   payload.  The payload encodes the envelope (varint i, varint w,
   8-byte float ts), then the event's id byte and its fields in
   [Trace.kinds] order — ints as zigzag LEB128, strings length-prefixed,
   floats as big-endian IEEE bits, bools as one byte, options with a
   presence byte.  Kept in lib/obs (no Wire dependency — the framing is
   Wire-compatible by construction, and Harness depends on us). *)

let frame_tag = 'F'

let w_uint buf v =
  let v = ref v in
  let continue = ref true in
  while !continue do
    let b = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let w_int buf v = w_uint buf ((v lsl 1) lxor (v asr 62))

let w_str buf s =
  w_uint buf (String.length s);
  Buffer.add_string buf s

let w_float buf f = Buffer.add_int64_be buf (Int64.bits_of_float f)

let w_field buf (ty : Trace.ty) (v : Trace.value) =
  (match ty with
  | Int_opt | Float_opt -> Buffer.add_char buf (if v = Absent then '\000' else '\001')
  | Int | Float | Bool | String -> ());
  match v with
  | I n -> w_int buf n
  | F f -> w_float buf f
  | B b -> Buffer.add_char buf (if b then '\001' else '\000')
  | S s -> w_str buf s
  | Absent -> ()

let encode_frame buf ~i ~w ~ts (id, values) =
  Buffer.clear buf;
  w_uint buf i;
  w_uint buf w;
  w_float buf ts;
  Buffer.add_char buf (Char.chr id);
  List.iter2 (fun (_, ty) v -> w_field buf ty v) Trace.kinds.(id).fields values;
  let len = Buffer.length buf in
  let frame = Bytes.create (5 + len) in
  Bytes.set frame 0 frame_tag;
  Bytes.set_int32_be frame 1 (Int32.of_int len);
  Buffer.blit buf 0 frame 5 len;
  Bytes.unsafe_to_string frame

let frame (r : Trace.record) =
  encode_frame (Buffer.create 64) ~i:r.i ~w:r.w ~ts:r.ts (Trace.to_values r.ev)

(* ------------------------------ decoder ------------------------------ *)

type cursor = { data : string; mutable pos : int; path : string }

let fail cur msg =
  raise
    (Json.Parse_error (Printf.sprintf "%s: byte %d: %s" cur.path cur.pos msg))

let r_byte cur =
  if cur.pos >= String.length cur.data then fail cur "truncated frame payload";
  let c = Char.code cur.data.[cur.pos] in
  cur.pos <- cur.pos + 1;
  c

let r_uint cur =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    let b = r_byte cur in
    if !shift > 56 then fail cur "varint too long";
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
  done;
  !v

let r_int cur =
  let u = r_uint cur in
  (u lsr 1) lxor (-(u land 1))

let r_str cur =
  let len = r_uint cur in
  if len < 0 || cur.pos + len > String.length cur.data then
    fail cur "truncated string";
  let s = String.sub cur.data cur.pos len in
  cur.pos <- cur.pos + len;
  s

let r_float cur =
  if cur.pos + 8 > String.length cur.data then fail cur "truncated float";
  let bits = String.get_int64_be cur.data cur.pos in
  cur.pos <- cur.pos + 8;
  Int64.float_of_bits bits

let r_field cur : Trace.ty -> Trace.value = function
  | Int -> I (r_int cur)
  | Float -> F (r_float cur)
  | Bool -> B (r_byte cur <> 0)
  | String -> S (r_str cur)
  | Int_opt -> if r_byte cur = 0 then Absent else I (r_int cur)
  | Float_opt -> if r_byte cur = 0 then Absent else F (r_float cur)

let decode_record cur : Trace.record =
  let i = r_uint cur in
  let w = r_uint cur in
  let ts = r_float cur in
  let id = r_byte cur in
  if id >= Array.length Trace.kinds then
    fail cur (Printf.sprintf "unknown flight event id %d" id);
  (* Fields are read in order off one cursor. *)
  let rec values = function
    | [] -> []
    | (_, ty) :: rest ->
        let v = r_field cur ty in
        v :: values rest
  in
  match Trace.of_values id (values Trace.kinds.(id).fields) with
  | ev -> { i; w; ts; ev }
  | exception Json.Parse_error msg -> fail cur msg

(* ------------------------------- rings ------------------------------ *)

let default_cap = 4096

(* The hot path must neither encode nor retain fresh heap values: eager
   encoding costs ~8 points of E14 overhead, and parking freshly
   allocated records in the ring costs ~11 more — every young record the
   ring keeps alive is promoted at the next minor collection, and a hot
   game emits ~1000 events per millisecond.  So a slot keeps its event's
   id, timestamp and field values in preallocated unboxed arrays
   ({!Trace.columns}): an append is a handful of plain stores, and a
   per-step event's one string is a literal executor name, so the ring
   retains nothing young.  The binary encoding runs only at flush
   time. *)
type ring = {
  ids : Bytes.t;  (** event id per slot *)
  tss : float array;  (** unboxed timestamp per slot *)
  values : Trace.columns;  (** field values, one slot per record *)
  w : int;  (** the stream it records: a domain id or a worker slot *)
  mutable now : float;  (** cached clock, refreshed every 32 hot appends *)
  mutable next : int;  (** total records appended *)
  mutable flushed : int;  (** records already written to disk *)
  buf : Buffer.t;  (** scratch for encoding at flush, domain-private *)
  r_epoch : int;  (** the install this ring records for *)
}

let make_ring ~cap ~w ~epoch =
  {
    ids = Bytes.make cap '\000';
    tss = Array.make cap 0.0;
    values = Trace.columns cap;
    w;
    now = Unix.gettimeofday ();
    next = 0;
    flushed = 0;
    buf = Buffer.create 256;
    r_epoch = epoch;
  }

(* ------------------------------- sink ------------------------------- *)

(* Where flushes go: the flight file, or — in a supervised worker
   process — the frames its current task ships to the parent. *)
type target = File of string | Memory of Buffer.t

type sink = {
  target : target;
  cap : int;
  t0 : float;  (** 0 for a worker's capture: its stamps are absolute *)
  lossless : bool;
      (** flush a full ring rather than overwrite it: a worker whose
          parent streams NDJSON ships every event *)
  relayed : (int, ring) Hashtbl.t;  (** rings of relayed worker streams, by [w] *)
  mutable error : string option;  (** the first I/O error, set once *)
}

let sink : sink option Atomic.t = Atomic.make None
let on () = Atomic.get sink <> None

(* Bumped on every install: a ring cached for a previous sink is reset
   before it records again, so no event is inherited. *)
let ring_epoch = Atomic.make 0

(* The frame of the record parked in slot [k] (an absolute index). *)
let slot_frame s r k =
  let idx = k mod s.cap in
  let id = Char.code (Bytes.get r.ids idx) in
  encode_frame r.buf ~i:k ~w:r.w ~ts:r.tss.(idx) (id, Trace.load r.values idx id)

let ring_key : ring option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* A ring is reset, not reallocated, when a new sink is installed, and
   the rings of exited domains are handed on to the next domain that
   records.  A worker process installs a fresh capture per task, so a
   long sweep would otherwise allocate a ring per cell, and that
   allocation, with the major collections it drives, outweighs the
   recording itself. *)
let spares : ring list ref = ref []
let spares_mutex = Mutex.create ()

let ring_for s =
  let cell = Domain.DLS.get ring_key in
  let epoch = Atomic.get ring_epoch in
  match !cell with
  | Some r when r.r_epoch = epoch -> r
  | previous ->
      let fits r = Array.length r.tss = s.cap in
      let reused =
        match previous with
        | Some r when fits r -> Some r
        | _ ->
            (* Spares of another capacity belong to an earlier sink. *)
            Mutex.protect spares_mutex (fun () ->
                match List.filter fits !spares with
                | r :: rest ->
                    spares := rest;
                    Some r
                | [] ->
                    spares := [];
                    None)
      in
      let w = (Domain.self () :> int) in
      let r =
        match reused with
        | Some r -> { r with w; next = 0; flushed = 0; r_epoch = epoch }
        | None -> make_ring ~cap:s.cap ~w ~epoch
      in
      if Option.is_none previous then
        Domain.at_exit (fun () ->
            Option.iter
              (fun r -> Mutex.protect spares_mutex (fun () -> spares := r :: !spares))
              !cell);
      cell := Some r;
      r

(* Write [data] to [path] and flush it before closing, so a full disk
   raises here rather than in a [close_out_noerr] that would swallow
   it. *)
let write_file flags path data =
  let oc = open_out_gen (Open_wronly :: Open_creat :: Open_binary :: flags) 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc data;
      flush oc)

let uninstall s =
  match Atomic.get sink with
  | Some s' as cur when s' == s ->
      Trace.set_hook None;
      ignore (Atomic.compare_and_set sink cur None)
  | _ -> ()

(* Observers never raise into the code they observe: the first I/O
   error detaches the recorder, and its teardown reports the error. *)
let detach s msg =
  if s.error = None then s.error <- Some msg;
  uninstall s

(* One writer at a time, one [output] per flush: concurrent anomalies on
   different domains interleave at flush granularity, never inside a
   frame. *)
let flush_mutex = Mutex.create ()

let flush_ring s r =
  Mutex.protect flush_mutex (fun () ->
      let first = max r.flushed (r.next - s.cap) in
      if s.error = None && first < r.next then begin
        let out = match s.target with Memory frames -> frames | File _ -> Buffer.create 4096 in
        for k = first to r.next - 1 do
          Buffer.add_string out (slot_frame s r k)
        done;
        match s.target with
        | Memory _ -> r.flushed <- r.next
        | File path -> (
            match write_file [ Open_append ] path (Buffer.contents out) with
            | () -> r.flushed <- r.next
            | exception Sys_error msg -> detach s msg)
      end)

(* Anomaly flushes under the current sink: a nonzero count makes the
   teardown flush the tail, so an anomalous run's file also carries the
   events {e after} the last anomaly (the verdict, the audit). *)
let anomaly_flushes = Atomic.make 0

(* Park [ev] in [r]'s next slot; [ts] stamps it, or — for [nan] — the
   ring's cached clock does.  Hot events share a clock sample refreshed
   every 32 appends — ~30ns/event of [gettimeofday] is the next-largest
   cost after allocation.  Every other event (every anomaly is one)
   takes a fresh sample. *)
let append s r ~ts ev =
  if s.lossless && r.next - r.flushed >= s.cap then flush_ring s r;
  let k = r.next mod s.cap in
  let id = Trace.store r.values k ev in
  if Float.is_nan ts then begin
    if r.next land 31 = 0 || not Trace.kinds.(id).hot then
      r.now <- Unix.gettimeofday ();
    r.tss.(k) <- r.now -. s.t0
  end
  else r.tss.(k) <- ts;
  Bytes.set r.ids k (Char.unsafe_chr id);
  r.next <- r.next + 1;
  if Trace.anomalous ev then begin
    Atomic.incr anomaly_flushes;
    flush_ring s r
  end

let record ev =
  match Atomic.get sink with
  | None -> ()
  | Some s -> append s (ring_for s) ~ts:Float.nan ev

let flush () =
  match Atomic.get sink with
  | None -> ()
  | Some s -> flush_ring s (ring_for s)

let with_sink ?(program = Filename.basename Sys.executable_name)
    ?(cap = default_cap) ?(on_error = fun msg -> raise (Sys_error msg)) ~path f =
  let s =
    {
      target = File path;
      cap;
      t0 = Unix.gettimeofday ();
      lossless = false;
      relayed = Hashtbl.create 4;
      error = None;
    }
  in
  if not (Atomic.compare_and_set sink None (Some s)) then
    invalid_arg "Flight.with_sink: a flight sink is already installed";
  Atomic.incr ring_epoch;
  Atomic.set anomaly_flushes 0;
  (* Header frame, written through the normal encoder so the file is
     self-describing whether or not an anomaly ever flushes. *)
  let header =
    frame
      { Trace.i = 0; w = (Domain.self () :> int); ts = 0.0;
        ev = Trace_header { version = Trace.version; program } }
  in
  (match write_file [ Open_trunc ] path header with
  | () -> Trace.set_hook (Some record)
  | exception Sys_error msg -> detach s msg);
  let v =
    Fun.protect
      ~finally:(fun () ->
        (* An anomalous run flushes its tails on the way out — a clean
           run leaves only the header on disk. *)
        if Atomic.get anomaly_flushes > 0 then begin
          flush ();
          Hashtbl.iter (fun _ r -> flush_ring s r) s.relayed
        end;
        uninstall s)
      f
  in
  Option.iter on_error s.error;
  v

let with_sink_opt ?program ?cap ?on_error path f =
  match path with
  | None -> f ()
  | Some path -> with_sink ?program ?cap ?on_error ~path f

let is_flight_file path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> match input_char ic with
          | c -> c = frame_tag
          | exception End_of_file -> false)

(* Hand each record framed in [data] to [f]; [path] names the source in
   errors. *)
let iter_records ~path data f =
  let cur = { data; pos = 0; path } in
  while cur.pos < String.length data do
    if data.[cur.pos] <> frame_tag then
      fail cur (Printf.sprintf "expected frame tag %C" frame_tag);
    if cur.pos + 5 > String.length data then fail cur "truncated frame header";
    let len = Int32.to_int (String.get_int32_be data (cur.pos + 1)) in
    if len < 0 then fail cur "negative frame length";
    let payload_end = cur.pos + 5 + len in
    if payload_end > String.length data then fail cur "truncated frame payload";
    cur.pos <- cur.pos + 5;
    let sub = { data = String.sub data cur.pos len; pos = 0; path } in
    let r = decode_record sub in
    if sub.pos <> len then fail sub "trailing bytes in frame payload";
    f r;
    cur.pos <- payload_end
  done

let read_file path =
  let data =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> In_channel.input_all ic)
  in
  let records = ref [] in
  iter_records ~path data (fun r -> records := r :: !records);
  List.rev !records

(* -------------------------- worker processes ------------------------ *)

(* A worker records its task's events into a ring whose flushes land in
   [frames], stamped with absolute times (its sink's [t0] is 0), and
   ships [frames] with its reply.  [`All] flushes a full ring and always
   ships (the parent streams NDJSON); [`Anomalies] flushes like the
   recorder and ships only when the task hit an anomaly. *)
type capture = { mode : [ `Off | `All | `Anomalies ]; frames : Buffer.t }

let capture_in_child () =
  let streaming = Trace.detach_in_child () in
  let mode =
    match Atomic.get sink with
    | _ when streaming -> `All
    | Some { target = Memory _; lossless = true; _ } -> `All
    | Some _ -> `Anomalies
    | None -> `Off
  in
  Atomic.set sink None;
  { mode; frames = Buffer.create 4096 }

let begin_task c =
  ignore (Trace.detach_in_child ());
  Atomic.set sink None;
  Buffer.clear c.frames;
  if c.mode <> `Off then begin
    Atomic.set sink
      (Some
         {
           target = Memory c.frames;
           cap = default_cap;
           t0 = 0.;
           lossless = c.mode = `All;
           relayed = Hashtbl.create 1;
           error = None;
         });
    Atomic.incr ring_epoch;
    Atomic.set anomaly_flushes 0;
    Trace.set_hook (Some record)
  end

let end_task c =
  match Atomic.get sink with
  | Some ({ target = Memory frames; _ } as s) when frames == c.frames ->
      if s.lossless || Atomic.get anomaly_flushes > 0 then flush_ring s (ring_for s);
      uninstall s;
      if Buffer.length frames = 0 then None else Some (Buffer.contents frames)
  | Some _ | None -> None

(* A relayed stream gets its own ring in a recorder, so an anomaly in
   it flushes the events that led up to it; a capturing worker (one
   whose task forked workers of its own) records them as its own. *)
let relay ~w frames =
  let forward (r : Trace.record) =
    Trace.relay ~w ~at:r.ts r.ev;
    match Atomic.get sink with
    | None -> ()
    | Some ({ target = Memory _; _ } as s) -> append s (ring_for s) ~ts:r.ts r.ev
    | Some ({ target = File _; _ } as s) ->
        let ring =
          match Hashtbl.find_opt s.relayed w with
          | Some ring -> ring
          | None ->
              let ring = make_ring ~cap:s.cap ~w ~epoch:0 in
              Hashtbl.replace s.relayed w ring;
              ring
        in
        append s ring ~ts:(r.ts -. s.t0) r.ev
  in
  (* Observers never raise into the run: a garbled shipment loses the
     rest of its events, nothing more. *)
  try iter_records ~path:"worker events" frames forward with Json.Parse_error _ -> ()
