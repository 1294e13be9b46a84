(* The flight recorder: binary codec roundtrip over the whole event
   vocabulary, anomaly-triggered flushing, the teardown tail flush, ring
   capacity, write failures, and the format sniff trace_report uses. *)

module T = Obs.Trace
module F = Obs.Flight

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let with_temp_file suffix f =
  let path = Filename.temp_file "flight_test" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let all_events = Trace_fixture.all_events

let contains ~needle haystack =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

(* Decoded records minus the leading file-header frame. *)
let recorded path =
  match F.read_file path with
  | { T.ev = T.Trace_header _; _ } :: rest -> rest
  | _ -> Alcotest.fail "missing header frame"

let recorded_events path = List.map (fun (r : T.record) -> r.T.ev) (recorded path)

let test_roundtrip_all_constructors () =
  with_temp_file ".flight" @@ fun path ->
  F.with_sink ~program:"test" ~path (fun () ->
      List.iter T.emit all_events;
      F.flush ());
  let back = recorded path in
  check_int "count" (List.length all_events) (List.length back);
  List.iter2
    (fun sent (r : T.record) ->
      check_bool "event survives the codec" true (sent = r.T.ev))
    all_events back;
  (* Envelopes: per-stream sequence numbers ascending from 0, and
     nonnegative timestamps. *)
  List.iteri
    (fun i (r : T.record) ->
      check_int "sequence" i r.i;
      check_bool "timestamp" true (r.ts >= 0.))
    back

let test_clean_run_leaves_header_only () =
  with_temp_file ".flight" @@ fun path ->
  F.with_sink ~program:"test" ~path (fun () ->
      for i = 1 to 100 do
        T.emit (T.Color_call { calls = i; work = i })
      done);
  match F.read_file path with
  | [ { T.ev = T.Trace_header { program = "test"; _ }; _ } ] -> ()
  | records -> Alcotest.failf "expected header only, got %d records"
                 (List.length records)

let test_anomaly_flush_and_tail () =
  with_temp_file ".flight" @@ fun path ->
  F.with_sink ~program:"test" ~path (fun () ->
      T.emit (T.Color_call { calls = 1; work = 1 });
      check_bool "anomalous" true
        (T.anomalous (T.Misbehavior { label = "l"; detail = "d" }));
      check_bool "audit ok not anomalous" false
        (T.anomalous (T.Audit { executor = "x"; ok = true; detail = "" }));
      check_bool "audit failure anomalous" true
        (T.anomalous (T.Audit { executor = "x"; ok = false; detail = "" }));
      T.emit (T.Misbehavior { label = "l"; detail = "d" });
      (* Everything up to the anomaly is on disk before the sink ends. *)
      check_int "flushed through the anomaly" 2
        (List.length (recorded_events path));
      (* Events after the last anomaly ride out on the teardown flush. *)
      T.emit (T.Job_done { id = "post"; status = "done" }));
  match recorded_events path with
  | [ T.Color_call _; T.Misbehavior _; T.Job_done { id = "post"; _ } ] -> ()
  | evs -> Alcotest.failf "unexpected records after teardown: %d" (List.length evs)

let test_ring_capacity () =
  with_temp_file ".flight" @@ fun path ->
  F.with_sink ~program:"test" ~cap:4 ~path (fun () ->
      for i = 1 to 10 do
        T.emit (T.Color_call { calls = i; work = 0 })
      done;
      F.flush ());
  match recorded_events path with
  | [ T.Color_call { calls = 7; _ }; T.Color_call { calls = 8; _ };
      T.Color_call { calls = 9; _ }; T.Color_call { calls = 10; _ } ] ->
      ()
  | evs -> Alcotest.failf "expected the last 4 events, got %d" (List.length evs)

let test_flush_is_incremental () =
  (* A second flush only appends what arrived since the first. *)
  with_temp_file ".flight" @@ fun path ->
  F.with_sink ~program:"test" ~path (fun () ->
      T.emit (T.Conn_open { conn = 1 });
      F.flush ();
      T.emit (T.Conn_close { conn = 1; reason = "eof" });
      F.flush ();
      F.flush ());
  match recorded_events path with
  | [ T.Conn_open _; T.Conn_close _ ] -> ()
  | evs -> Alcotest.failf "duplicated or lost frames: %d" (List.length evs)

let test_is_flight_file () =
  with_temp_file ".flight" @@ fun flight ->
  with_temp_file ".ndjson" @@ fun ndjson ->
  F.with_sink ~program:"test" ~path:flight (fun () -> ());
  T.with_sink ~program:"test" ~path:ndjson (fun () ->
      T.emit (T.Conn_open { conn = 1 }));
  check_bool "flight file" true (F.is_flight_file flight);
  check_bool "ndjson file" false (F.is_flight_file ndjson);
  check_bool "missing file" false (F.is_flight_file "/nonexistent/x.flight")

(* /dev/full fails the header write: the recorder detaches, emits
   (anomalies included, which would flush) return, and teardown reports
   the error. *)
let test_full_disk_detaches () =
  (match
     F.with_sink ~program:"test" ~path:"/dev/full" (fun () ->
         List.iter T.emit all_events;
         check_bool "recorder detached" false (F.on ());
         F.flush ())
   with
  | () -> Alcotest.fail "teardown did not report the write error"
  | exception Sys_error _ -> ());
  check_bool "hook removed" false (T.on ());
  let errors = ref 0 in
  F.with_sink ~program:"test" ~path:"/dev/full"
    ~on_error:(fun _ -> incr errors)
    (fun () -> T.emit (T.Misbehavior { label = "l"; detail = "d" }));
  check_int "one error reported" 1 !errors

let test_read_rejects_corruption () =
  with_temp_file ".flight" @@ fun path ->
  F.with_sink ~program:"test" ~path (fun () ->
      T.emit (T.Misbehavior { label = "l"; detail = "d" }));
  let data =
    In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)
  in
  let rejects what bytes =
    with_temp_file ".bad" @@ fun bad ->
    Out_channel.with_open_bin bad (fun oc -> Out_channel.output_string oc bytes);
    match F.read_file bad with
    | exception Obs.Json.Parse_error _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  rejects "truncated frame" (String.sub data 0 (String.length data - 1));
  rejects "bad tag" ("X" ^ String.sub data 1 (String.length data - 1));
  (* A header claiming a newer format version is refused like the NDJSON
     reader does: hand-craft the frame byte by byte. *)
  let newer =
    let b = Buffer.create 32 in
    Buffer.add_char b 'F';
    Buffer.add_int32_be b 13l;
    Buffer.add_char b '\000' (* i *);
    Buffer.add_char b '\000' (* w *);
    Buffer.add_string b (String.make 8 '\000') (* ts *);
    Buffer.add_char b '\000' (* Trace_header *);
    Buffer.add_char b (Char.chr ((T.version + 1) lsl 1)) (* zigzag version *);
    Buffer.add_char b '\000' (* program "" *);
    Buffer.contents b
  in
  rejects "newer format version" newer;
  check_string "good file still reads" "test"
    (match F.read_file path with
    | { T.ev = T.Trace_header { program; _ }; _ } :: _ -> program
    | _ -> "?")

(* A header frame as written by the given format version: 'F', length,
   envelope (i 0, w 0, ts 0), id 0 (Trace_header at every version), the
   zigzag version and an empty program name. *)
let header_frame version =
  let b = Buffer.create 32 in
  Buffer.add_char b 'F';
  Buffer.add_int32_be b 13l;
  Buffer.add_char b '\000';
  Buffer.add_char b '\000';
  Buffer.add_string b (String.make 8 '\000');
  Buffer.add_char b '\000';
  Buffer.add_char b (Char.chr (version lsl 1));
  Buffer.add_char b '\000';
  Buffer.contents b

(* v7 dropped a kind, so every later binary id moved: a v6 file must be
   refused with a version error, never misparsed. *)
let test_read_rejects_older_version () =
  with_temp_file ".flight" @@ fun path ->
  let read version =
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (header_frame version));
    F.read_file path
  in
  (match read 6 with
  | exception Obs.Json.Parse_error msg ->
      check_bool ("a version error: " ^ msg) true (contains ~needle:"version 6" msg)
  | _ -> Alcotest.fail "a v6 header was accepted");
  match read T.version with
  | [ { T.ev = T.Trace_header { version; program = "" }; _ } ] ->
      check_int "current version reads" T.version version
  | _ -> Alcotest.fail "the current version's header did not read"

let () =
  Alcotest.run "flight"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip all constructors" `Quick
            test_roundtrip_all_constructors;
          Alcotest.test_case "rejects corruption" `Quick
            test_read_rejects_corruption;
          Alcotest.test_case "rejects a pre-v7 header" `Quick
            test_read_rejects_older_version;
        ] );
      ( "flush",
        [
          Alcotest.test_case "clean run leaves header only" `Quick
            test_clean_run_leaves_header_only;
          Alcotest.test_case "anomaly flush and teardown tail" `Quick
            test_anomaly_flush_and_tail;
          Alcotest.test_case "ring capacity" `Quick test_ring_capacity;
          Alcotest.test_case "incremental flush" `Quick test_flush_is_incremental;
          Alcotest.test_case "full disk detaches" `Quick test_full_disk_detaches;
        ] );
      ( "sniff",
        [ Alcotest.test_case "is_flight_file" `Quick test_is_flight_file ] );
    ]
