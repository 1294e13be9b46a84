type cell = { key : string; run : unit -> string }

exception Interrupted

module Journal = struct
  (* Journal format version.  The header is a tab-less line, which a
     pre-versioning loader already skipped as foreign (so v1 files replay
     under v0 code), and a file with no header is v0 (so old checkpoints
     replay here).  Bump [version] — and keep parsing the old
     layouts — when the record format changes.

     v2 adds a per-record integrity trailer: each record is
     [escape(key) TAB escape(value) TAB @crc:len] where [crc] is the
     8-hex-digit {!Wire.crc32} of everything before the last tab and
     [len] its byte length.  Escaping removes raw tabs from key and
     value, so the trailer is unambiguously the suffix after the last
     tab.  Records whose trailer is missing, malformed, or fails the
     length/CRC check are skipped with a typed, traced warning — a
     resume then reruns exactly the affected cells instead of replaying
     silently corrupted bytes.  The loader keys parsing off the most
     recent header line, so v0/v1 files (and v0/v1 prefixes of resumed
     files) replay unchanged. *)
  let version = 2
  let header_prefix = "#sweep-checkpoint v"
  let header = Printf.sprintf "%s%d" header_prefix version

  let parse_header line =
    if String.length line >= String.length header_prefix
       && String.sub line 0 (String.length header_prefix) = header_prefix
    then
      let rest =
        String.sub line
          (String.length header_prefix)
          (String.length line - String.length header_prefix)
      in
      match int_of_string_opt (String.trim rest) with
      | Some v -> Some v
      | None -> invalid_arg ("Sweep: malformed checkpoint header: " ^ line)
    else None

  let escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let unescape s =
    let b = Buffer.create (String.length s) in
    let i = ref 0 in
    let len = String.length s in
    while !i < len do
      (match s.[!i] with
      | '\\' when !i + 1 < len ->
          incr i;
          Buffer.add_char b
            (match s.[!i] with 'n' -> '\n' | 't' -> '\t' | c -> c)
      | c -> Buffer.add_char b c);
      incr i
    done;
    Buffer.contents b

  let trailer_of body =
    Printf.sprintf "@%08x:%d" (Wire.crc32 body) (String.length body)

  (* "@crc:len" with crc exactly 8 hex digits and len decimal. *)
  let parse_trailer s =
    let n = String.length s in
    if n < 11 || s.[0] <> '@' || s.[9] <> ':' then None
    else
      let hex = String.sub s 1 8 in
      let is_hex c =
        (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
      in
      if not (String.for_all is_hex hex) then None
      else
        match
          ( int_of_string_opt ("0x" ^ hex),
            int_of_string_opt (String.sub s 10 (n - 10)) )
        with
        | Some crc, Some len when len >= 0 -> Some (crc, len)
        | _ -> None

  type corruption = { line : int; reason : string }

  (* The one scanner behind [load] and [fsck]: walks newline-delimited
     records, tracks the version context set by the most recent header
     line, verifies v2 trailers, and reports each good record /
     corrupt record through the callbacks.  Returns the last header
     version seen (0 for a headerless v0 file). *)
  let scan path ~record ~corrupt =
    let ver = ref 0 in
    if Sys.file_exists path then begin
      let contents =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> In_channel.input_all ic)
      in
      let n = String.length contents in
      let lineno = ref 0 in
      let rec go start =
        if start < n then
          match String.index_from_opt contents start '\n' with
          | None -> ()  (* torn final record (killed mid-write): dropped *)
          | Some stop ->
              incr lineno;
              let line = String.sub contents start (stop - start) in
              (match parse_header line with
              | Some v when v > version ->
                  invalid_arg
                    (Printf.sprintf
                       "Sweep: checkpoint %s is format v%d, newer than this \
                        binary (v%d)"
                       path v version)
              | Some v -> ver := v
              | None -> ());
              (match String.index_opt line '\t' with
              | None -> ()  (* headerless = v0; other foreign lines: dropped *)
              | Some _ when !ver >= 2 -> (
                  (* escaping strips raw tabs from key and value, so the
                     trailer is exactly the suffix after the last tab *)
                  let cut = String.rindex line '\t' in
                  let body = String.sub line 0 cut in
                  let trailer =
                    String.sub line (cut + 1) (String.length line - cut - 1)
                  in
                  match parse_trailer trailer with
                  | None ->
                      corrupt
                        { line = !lineno; reason = "malformed record trailer" }
                  | Some (crc, len) ->
                      if len <> String.length body then
                        corrupt
                          {
                            line = !lineno;
                            reason =
                              Printf.sprintf
                                "length mismatch: trailer says %d bytes, \
                                 record has %d"
                                len (String.length body);
                          }
                      else
                        let actual = Wire.crc32 body in
                        if crc <> actual then
                          corrupt
                            {
                              line = !lineno;
                              reason =
                                Printf.sprintf
                                  "crc mismatch: trailer %08x, computed %08x"
                                  crc actual;
                            }
                        else
                          (match String.index_opt body '\t' with
                          | None ->
                              corrupt
                                {
                                  line = !lineno;
                                  reason = "missing key/value separator";
                                }
                          | Some cut ->
                              record
                                (unescape (String.sub body 0 cut))
                                (unescape
                                   (String.sub body (cut + 1)
                                      (String.length body - cut - 1)))))
              | Some cut ->
                  record
                    (unescape (String.sub line 0 cut))
                    (unescape
                       (String.sub line (cut + 1) (String.length line - cut - 1))));
              go (stop + 1)
      in
      go 0
    end;
    !ver

  let load path =
    let records = ref [] in
    let corrupt { line; reason } =
      if Obs.Trace.on () then
        Obs.Trace.emit (Obs.Trace.Journal_corrupt { path; line; reason });
      Printf.eprintf "journal: %s:%d: corrupt record skipped (%s)\n%!" path
        line reason
    in
    ignore
      (scan path ~record:(fun k v -> records := (k, v) :: !records) ~corrupt);
    List.rev !records

  type fsck_report = {
    version : int;
    records : int;
    corrupt : corruption list;
  }

  let fsck path =
    let n = ref 0 in
    let cs = ref [] in
    let version =
      scan path
        ~record:(fun _ _ -> incr n)
        ~corrupt:(fun c -> cs := c :: !cs)
    in
    { version; records = !n; corrupt = List.rev !cs }

  let load_table path =
    let completed = Hashtbl.create 64 in
    (* replace: if a torn record was later terminated and the key
       re-recorded, the later record wins *)
    List.iter (fun (k, v) -> Hashtbl.replace completed k v) (load path);
    completed

  let ends_without_newline path =
    match open_in_bin path with
    | exception Sys_error _ -> false
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let len = in_channel_length ic in
            len > 0
            && begin
                 seek_in ic (len - 1);
                 input_char ic <> '\n'
               end)

  (* Whole records only: each append is flushed before it returns, so a
     kill can tear at most the final record — the same torn-record
     semantics [load] already repairs. *)
  type t = out_channel

  let first_line path =
    match open_in_bin path with
    | exception Sys_error _ -> None
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> In_channel.input_line ic)

  let open_out ?(resume = false) path =
    let existing =
      resume && Sys.file_exists path
      && (try (Unix.stat path).Unix.st_size > 0 with Unix.Unix_error _ -> false)
    in
    if not existing then begin
      (* Fresh journal: the header is written to a tmp file and renamed
         into place, so a kill during creation leaves either no journal
         or a complete headered one — never a half-written header that
         a later resume would misparse as a v0 record stream. *)
      let tmp = path ^ ".tmp" in
      let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc header;
          output_char oc '\n';
          flush oc);
      Sys.rename tmp path
    end;
    let torn = existing && ends_without_newline path in
    let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path in
    (* A kill mid-write can leave a torn, newline-less final record;
       terminate it so the records appended below stay line-delimited.
       [load] already skipped the torn record (under v2 the repaired
       line additionally fails its CRC), so its key reruns and its
       fresh record supersedes the torn one on any later load. *)
    if torn then output_char oc '\n';
    (* Resuming into a pre-v2 file keeps its existing records as-is and
       appends a v2 header line to switch the version context, so the
       records appended below carry — and are verified against — CRC
       trailers while the old prefix still replays under v0/v1 rules. *)
    if existing then begin
      (match first_line path with
      | Some l when parse_header l = Some version -> ()
      | _ ->
          output_string oc header;
          output_char oc '\n')
    end;
    flush oc;
    oc

  let append oc ~key value =
    let body = escape key ^ "\t" ^ escape value in
    let record = body ^ "\t" ^ trailer_of body ^ "\n" in
    output_string oc record;
    flush oc;
    if Obs.Trace.on () then
      Obs.Trace.emit (Obs.Trace.Checkpoint_flush { key; bytes = String.length record })

  let close = close_out_noerr
end

let load = Journal.load_table

(* A checkpoint record value is [output] or [output NUL stats-delta]:
   the cell's printed result, optionally followed by the {!Stats}
   snapshot the cell contributed ({!Obs.Stats.scoped} in-domain, the
   supervisor's ['S'] frame on workers).  NUL never occurs
   in cell output (results are printable text) or in the compact-JSON
   delta, and pre-stats journals simply have no NUL — both layouts
   parse under both vintages. *)
let join_delta out delta = if delta = "" then out else out ^ "\x00" ^ delta

let split_delta v =
  match String.index_opt v '\x00' with
  | None -> (v, "")
  | Some i -> (String.sub v 0 i, String.sub v (i + 1) (String.length v - i - 1))

(* Replaying a checkpointed cell restores its stats contribution, so a
   killed-and-resumed sweep drains the same totals as an uninterrupted
   one.  A malformed delta (hand-edited journal) degrades to replaying
   the output without stats rather than failing the resume. *)
let replay_value v =
  let out, delta = split_delta v in
  if delta <> "" && Obs.Stats.on () then ignore (Obs.Stats.absorb_string delta);
  out

type isolation = [ `In_domain | `Process ]

let run ?(resume = false) ?checkpoint ?(jobs = 1) ?(isolation = `In_domain)
    ?supervisor ~ppf cells =
  if jobs < 1 then invalid_arg "Sweep.run: jobs must be >= 1";
  let keys = Hashtbl.create (List.length cells * 2 + 1) in
  List.iter
    (fun c ->
      if Hashtbl.mem keys c.key then
        invalid_arg ("Sweep.run: duplicate cell key " ^ c.key);
      Hashtbl.replace keys c.key ())
    cells;
  let completed =
    match checkpoint with
    | Some path when resume -> load path
    | Some _ | None -> Hashtbl.create 0
  in
  let out = Option.map (fun path -> Journal.open_out ~resume path) checkpoint in
  let cells_arr = Array.of_list cells in
  let append_ckpt key r =
    Option.iter (fun j -> Journal.append j ~key r) out
  in
  let sigint = Atomic.make false in
  (* Trap SIGINT.  In-domain it raises [Sys.Break] — the one interrupt
     every containment layer (Guard.guarded_call, Guard.capture, the
     executors) treats as fatal and re-raises — so Ctrl-C landing inside
     algorithm or adversary code can never be swallowed into a fake cell
     result and flushed to the checkpoint.  Under worker processes,
     raising mid-supervision would unwind the parent loop and leak
     workers, so the handler only records the request: the supervisor
     polls it via [should_stop] and drains cleanly.  Either way the
     boundary below surfaces {!Interrupted} after the checkpoint is
     flushed and closed. *)
  let previous_sigint =
    let handler =
      match isolation with
      | `Process -> Sys.Signal_handle (fun _ -> Atomic.set sigint true)
      | `In_domain -> Sys.Signal_handle (fun _ -> raise Sys.Break)
    in
    try Some (Sys.signal Sys.sigint handler)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let print result = Format.fprintf ppf "%s@." result in
  let trace_cell key status =
    if Obs.Trace.on () then begin
      Obs.Trace.emit (Obs.Trace.Cell_start { key });
      Obs.Trace.emit (Obs.Trace.Cell_finish { key; status })
    end
  in
  (* A checkpointed cell replays verbatim: resumed output is
     byte-identical, and its stats delta is re-absorbed. *)
  let replayed c =
    Hashtbl.find_opt completed c.key
    |> Option.map (fun r ->
           trace_cell c.key "replayed";
           replay_value r)
  in
  let run_in_domain c =
    match replayed c with
    | Some r -> print r
    | None ->
        if Obs.Trace.on () then Obs.Trace.emit (Obs.Trace.Cell_start { key = c.key });
        let status = ref "ok" in
        let r, delta =
          (* [Obs.Stats.scoped] captures exactly this cell's contribution
             for the checkpoint; an erroring cell's scope is discarded,
             matching a worker, which sends no stats with an error. *)
          match Obs.Stats.scoped c.run with
          | rd -> rd
          | exception (Interrupted as e) -> raise e
          | exception e when Guard.is_fatal e -> raise e
          | exception exn ->
              (* A crashed cell is a recorded result, not an
                 aborted sweep. *)
              status := "error";
              ("ERROR: " ^ Printexc.to_string exn, "")
        in
        append_ckpt c.key (join_delta r delta);
        if Obs.Trace.on () then
          Obs.Trace.emit (Obs.Trace.Cell_finish { key = c.key; status = !status });
        print r
  in
  let run_cells () =
    match isolation with
    | `In_domain -> Array.iter run_in_domain cells_arr
    | `Process ->
        let n = Array.length cells_arr in
        let is_replayed = Array.make (max n 1) false in
        let inline i =
          let r = replayed cells_arr.(i) in
          is_replayed.(i) <- r <> None;
          r
        in
        (* A worker brackets its cell with [Cell_start] and
           [Cell_finish], so they reach the parent's trace on the
           worker's own relayed stream, around the cell's events.  It
           returns exactly the string the in-domain path would have
           produced, and [Supervisor.outcome_to_string] maps a raise to
           the identical ERROR format: well-behaved and
           deterministically-raising cells print the same bytes either
           way. *)
        let work i =
          let key = cells_arr.(i).key in
          if Obs.Trace.on () then Obs.Trace.emit (Obs.Trace.Cell_start { key });
          let finish status =
            if Obs.Trace.on () then Obs.Trace.emit (Obs.Trace.Cell_finish { key; status })
          in
          match cells_arr.(i).run () with
          | r ->
              finish "ok";
              r
          | exception e ->
              finish "error";
              raise e
        in
        let result_of = Supervisor.outcome_to_string in
        (* Worker stats arrive as the supervisor's ['S'] frame; stash
           the delta so [complete] can checkpoint it next to the cell's
           result, and absorb it so this process's drain matches the
           in-domain path byte for byte. *)
        let stats_of = Array.make (max n 1) "" in
        let on_stats ~task payload =
          stats_of.(task) <- payload;
          ignore (Obs.Stats.absorb_string payload)
        in
        let complete i outcome =
          if not is_replayed.(i) then begin
            let c = cells_arr.(i) in
            append_ckpt c.key (join_delta (result_of outcome) stats_of.(i));
            (* A quarantined cell's last worker died with its events:
               the parent reports the cell. *)
            match outcome with
            | Supervisor.Quarantined _ -> trace_cell c.key "quarantined"
            | Supervisor.Done _ | Supervisor.Failed _ -> ()
          end
        in
        Supervisor.run ?config:supervisor
          ~should_stop:(fun () -> Atomic.get sigint)
          ~jobs ~tasks:n
          ~key:(fun i -> cells_arr.(i).key)
          ~inline ~work ~on_stats ~complete
          ~consume:(fun _ o -> print (result_of o))
          ()
  in
  match
    Fun.protect
      ~finally:(fun () ->
        Option.iter (fun b -> Sys.set_signal Sys.sigint b) previous_sigint;
        Option.iter Journal.close out)
      (fun () ->
        run_cells ();
        Format.pp_print_flush ppf ();
        if Atomic.get sigint then raise Sys.Break)
  with
  | () -> ()
  | exception Sys.Break -> raise Interrupted

let flag_suffix = function None -> "" | Some flag -> " (flag " ^ flag ^ ")"

let int_axis ?flag s =
  let axis =
    List.filter_map
      (fun part ->
        let part = String.trim part in
        if part = "" then None
        else
          match int_of_string_opt part with
          | Some i -> Some i
          | None ->
              invalid_arg
                ("Sweep.int_axis: not an integer: " ^ part ^ flag_suffix flag))
      (String.split_on_char ',' s)
  in
  if axis = [] then
    invalid_arg ("Sweep.int_axis: empty axis" ^ flag_suffix flag)
  else axis

let string_axis ?flag s =
  let axis =
    List.filter_map
      (fun part ->
        let part = String.trim part in
        if part = "" then None else Some part)
      (String.split_on_char ',' s)
  in
  if axis = [] then
    invalid_arg ("Sweep.string_axis: empty axis" ^ flag_suffix flag)
  else axis
