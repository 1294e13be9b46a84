(* The observability layer: canonical JSON, the NDJSON trace codec and
   sink, and the versioned sweep checkpoint header. *)

open Online_local
module J = Obs.Json
module T = Obs.Trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let with_temp_file suffix f =
  let path = Filename.temp_file "trace_test" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* ------------------------------ json ------------------------------- *)

let test_json_canonical_printing () =
  check_string "object"
    {|{"a":1,"b":[true,false,null],"c":"x\n\"y\""}|}
    (J.to_string
       (J.Obj
          [
            ("a", J.Int 1);
            ("b", J.List [ J.Bool true; J.Bool false; J.Null ]);
            ("c", J.String "x\n\"y\"");
          ]));
  (* Floats: fixed-point, up to six decimals, trailing zeros trimmed,
     one decimal always kept. *)
  check_string "float trims zeros" "0.25" (J.to_string (J.Float 0.25));
  check_string "float keeps one decimal" "3.0" (J.to_string (J.Float 3.));
  check_string "float six decimals" "0.000001" (J.to_string (J.Float 1e-6));
  check_string "non-finite is null" "null" (J.to_string (J.Float Float.nan))

let test_json_roundtrip_byte_identical () =
  (* Canonical printing makes print/parse/print the identity on
     anything the library itself produced. *)
  List.iter
    (fun v ->
      let s = J.to_string v in
      check_string s s (J.to_string (J.of_string s)))
    [
      J.Null;
      J.Bool true;
      J.Int (-42);
      J.Float 1.5;
      J.Float (-0.000125);
      J.String "tabs\tand\nnewlines and \x01 control";
      J.List [ J.Int 1; J.List []; J.Obj [] ];
      J.Obj [ ("k", J.String "v"); ("nested", J.Obj [ ("x", J.Float 2.5) ]) ];
    ]

let test_json_parse_errors () =
  let rejects s =
    match J.of_string s with
    | exception J.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted malformed %S" s
  in
  rejects "";
  rejects "{";
  rejects "[1,]";
  rejects "{\"a\":}";
  rejects "\"unterminated";
  rejects "1 2";
  rejects "tru"

let test_json_accessors () =
  let j = J.of_string {|{"i":3,"f":1.5,"s":"x","b":true}|} in
  check_bool "member+int" true (J.member "i" j |> Option.get |> J.to_int_opt = Some 3);
  check_bool "int reads as float" true
    (J.member "i" j |> Option.get |> J.to_float_opt = Some 3.);
  check_bool "missing member" true (J.member "zzz" j = None);
  check_bool "string" true (J.member "s" j |> Option.get |> J.to_string_opt = Some "x");
  check_bool "bool" true (J.member "b" j |> Option.get |> J.to_bool_opt = Some true)

(* --------------------------- trace codec --------------------------- *)

let all_events = Trace_fixture.all_events

(* The shared fixture holds one event per constructor, in declaration
   order, so the round-trips below cover the whole type. *)
let test_fixture_covers_every_kind () =
  Alcotest.(check (list int))
    "ids" (List.init (Array.length T.kinds) Fun.id)
    (List.map (fun ev -> fst (T.to_values ev)) all_events)

let test_values_roundtrip () =
  List.iter
    (fun ev ->
      let id, values = T.to_values ev in
      check_bool T.kinds.(id).T.tag true (T.of_values id values = ev))
    all_events

let test_event_codec_roundtrip () =
  List.iteri
    (fun idx ev ->
      (* ts chosen dyadic so the decimal rendering is exact *)
      let r = { T.i = idx; w = 1; ts = 0.5 +. float_of_int idx; ev } in
      let line = T.record_to_string r in
      let r' = T.record_of_json (J.of_string line) in
      check_string "re-emit is byte-identical" line (T.record_to_string r');
      check_bool "structurally equal" true (r = r'))
    all_events

let test_codec_rejects_newer_version () =
  let line =
    {|{"i":0,"w":0,"ts":0.0,"ev":"trace_header","version":99,"program":"x"}|}
  in
  match T.record_of_json (J.of_string line) with
  | exception J.Parse_error _ -> ()
  | _ -> Alcotest.fail "accepted a newer trace format version"

let test_codec_rejects_unknown_event () =
  let line = {|{"i":0,"w":0,"ts":0.0,"ev":"time_travel"}|} in
  match T.record_of_json (J.of_string line) with
  | exception J.Parse_error _ -> ()
  | _ -> Alcotest.fail "accepted an unknown event"

(* ---------------------------- trace sink --------------------------- *)

let test_sink_ndjson_roundtrip () =
  (* Emit through a real sink, parse the file back, re-emit every
     record: the NDJSON stream must survive a full round-trip
     byte-identically. *)
  with_temp_file ".trace" (fun path ->
      check_bool "off outside sink" false (T.on ());
      T.with_sink ~program:"test" ~path (fun () ->
          check_bool "on inside sink" true (T.on ());
          List.iter T.emit (List.tl all_events));
      check_bool "off after sink" false (T.on ());
      let records = T.read_file path in
      check_int "header + events" (List.length all_events) (List.length records);
      (match records with
      | { T.ev = T.Trace_header { version; program }; i = 0; _ } :: _ ->
          check_int "header version" T.version version;
          check_string "header program" "test" program
      | _ -> Alcotest.fail "first record is not the header");
      List.iteri (fun idx r -> check_int "i is dense" idx r.T.i) records;
      let original = In_channel.with_open_text path In_channel.input_lines in
      let reemitted = List.map T.record_to_string records in
      Alcotest.(check (list string)) "re-emitted file is byte-identical" original
        reemitted)

let test_sink_rejects_nesting () =
  with_temp_file ".trace" (fun p1 ->
      with_temp_file ".trace" (fun p2 ->
          T.with_sink ~program:"outer" ~path:p1 (fun () ->
              match T.with_sink ~program:"inner" ~path:p2 (fun () -> ()) with
              | exception Invalid_argument _ -> ()
              | () -> Alcotest.fail "nested sink accepted")))

(* Observers never raise into the code they observe: /dev/full accepts
   the open and fails every write, so the sink detaches on its first
   flush, every emit returns, and teardown reports the error. *)
let test_sink_on_full_disk () =
  let emitted = ref 0 in
  let emit_many () =
    for i = 1 to 20_000 do
      T.emit (T.Color_call { calls = i; work = i });
      incr emitted
    done
  in
  (match T.with_sink ~program:"test" ~path:"/dev/full" emit_many with
  | () -> Alcotest.fail "teardown did not report the write error"
  | exception Sys_error _ -> ());
  check_int "every emit returned" 20_000 !emitted;
  check_bool "sink detached" false (T.on ());
  let errors = ref [] in
  let v =
    T.with_sink ~program:"test" ~path:"/dev/full"
      ~on_error:(fun msg -> errors := msg :: !errors)
      (fun () ->
        emit_many ();
        42)
  in
  check_int "callback result kept" 42 v;
  check_int "one error reported" 1 (List.length !errors);
  let opened = ref false in
  T.with_sink ~program:"test" ~path:"/nonexistent/dir/x.trace"
    ~on_error:(fun _ -> opened := true)
    (fun () -> check_bool "no sink without a file" false (T.on ()));
  check_bool "open failure reported" true !opened

let test_read_file_strict () =
  with_temp_file ".trace" (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc "{\"i\":0,\"w\":0,\"ts\":0.0,\"ev\":\"cell_start\",\"key\":\"a\"}\nnot json\n");
      match T.read_file path with
      | exception J.Parse_error msg ->
          check_bool "error names the line" true
            (String.length msg > 0
            && Option.is_some (String.index_opt msg ':'))
      | _ -> Alcotest.fail "malformed line accepted")

(* ------------------------- traced game run ------------------------- *)

let test_traced_game_has_spans () =
  with_temp_file ".trace" (fun path ->
      let verdict =
        T.with_sink ~program:"test" ~path (fun () ->
            Game.thm1.Game.play ~n:40 (Portfolio.greedy ()))
      in
      check_bool "greedy is defeated" true verdict.Game.defeated;
      let records = T.read_file path in
      let has p = List.exists (fun r -> p r.T.ev) records in
      check_bool "game_start present" true
        (has (function T.Game_start { adversary = "thm1-grid"; _ } -> true | _ -> false));
      check_bool "verdict is DEFEATED" true
        (has (function
          | T.Game_verdict { outcome = "DEFEATED"; _ } -> true
          | _ -> false));
      check_bool "steps present" true
        (has (function T.Step _ -> true | _ -> false));
      check_bool "color calls metered" true
        (has (function T.Color_call _ -> true | _ -> false)))

(* --------------------- checkpoint versioning ----------------------- *)

let cells_of log =
  List.map
    (fun key ->
      {
        Harness.Sweep.key;
        run =
          (fun () ->
            log := key :: !log;
            "result " ^ key);
      })
    [ "a"; "b" ]

let render ?resume ?checkpoint cells =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Harness.Sweep.run ?resume ?checkpoint ~ppf cells;
  Buffer.contents buf

let test_checkpoint_v2_header_written () =
  with_temp_file ".ckpt" (fun path ->
      let log = ref [] in
      let full = render ~checkpoint:path (cells_of log) in
      let lines = In_channel.with_open_text path In_channel.input_lines in
      check_string "header first" "#sweep-checkpoint v2" (List.hd lines);
      check_int "header + one record per cell" 3 (List.length lines);
      (* Every v2 record carries its CRC trailer. *)
      List.iter
        (fun line ->
          check_bool "record has a crc trailer" true
            (match String.rindex_opt line '\t' with
            | None -> false
            | Some t ->
                String.length line > t + 1 && line.[t + 1] = '@'))
        (List.tl lines);
      (* And the file resumes: nothing reruns, output is identical. *)
      log := [];
      let resumed = render ~resume:true ~checkpoint:path (cells_of log) in
      check_string "byte-identical resume" full resumed;
      check_int "nothing reran" 0 (List.length !log))

(* A journal in a format no writer emits any more is refused, naming
   its version, before anything runs or the file is touched; fsck
   refuses it the same way. *)
let rejected_checkpoint ~version contents () =
  with_temp_file ".ckpt" (fun path ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents);
      let log = ref [] in
      let names_version msg =
        let needle = Printf.sprintf "format v%d" version in
        let n = String.length needle in
        let rec at i =
          i + n <= String.length msg && (String.sub msg i n = needle || at (i + 1))
        in
        at 0
      in
      (match render ~resume:true ~checkpoint:path (cells_of log) with
      | exception Invalid_argument msg ->
          check_bool ("names the version: " ^ msg) true (names_version msg)
      | _ -> Alcotest.fail (Printf.sprintf "resumed a v%d checkpoint" version));
      check_int "nothing ran" 0 (List.length !log);
      check_string "the file is untouched" contents
        (In_channel.with_open_bin path In_channel.input_all);
      check_bool "fsck rejects it" true
        (match Harness.Sweep.Journal.fsck path with
        | exception Invalid_argument msg -> names_version msg
        | _ -> false))

let corrupt_last_record path =
  (* flip one bit in the middle of the final record *)
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let last_line_start = String.rindex_from contents (String.length contents - 2) '\n' + 1 in
  let off = last_line_start + 3 in
  let b = Bytes.of_string contents in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x10));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc b)

let test_checkpoint_corrupt_record_skipped_and_rerun () =
  with_temp_file ".ckpt" (fun ckpt ->
      with_temp_file ".trace" (fun trace ->
          let log = ref [] in
          let full = render ~checkpoint:ckpt (cells_of log) in
          corrupt_last_record ckpt;
          (* fsck sees exactly the damaged record *)
          let report = Harness.Sweep.Journal.fsck ckpt in
          check_int "one corrupt record" 1
            (List.length report.Harness.Sweep.Journal.corrupt);
          (* resume: the bit-flipped record is skipped with a typed,
             traced warning and exactly that cell reruns *)
          log := [];
          let resumed =
            T.with_sink ~program:"test" ~path:trace (fun () ->
                render ~resume:true ~checkpoint:ckpt (cells_of log))
          in
          check_string "byte-identical despite corruption" full resumed;
          Alcotest.(check (list string)) "exactly the torn cell reran" [ "b" ] !log;
          let corrupt_events =
            List.filter
              (fun r ->
                match r.T.ev with T.Journal_corrupt _ -> true | _ -> false)
              (T.read_file trace)
          in
          check_int "typed warning traced" 1 (List.length corrupt_events);
          (* the journal is append-only: the damaged line stays (fsck
             keeps flagging it) but the rerun appended a good record
             that supersedes it — a second resume replays everything *)
          let report = Harness.Sweep.Journal.fsck ckpt in
          check_int "fsck still flags the torn line" 1
            (List.length report.Harness.Sweep.Journal.corrupt);
          check_int "both cells have valid records" 2
            report.Harness.Sweep.Journal.records;
          log := [];
          let again = render ~resume:true ~checkpoint:ckpt (cells_of log) in
          check_string "second resume byte-identical" full again;
          check_int "nothing reran" 0 (List.length !log)))

let test_checkpoint_newer_version_rejected () =
  with_temp_file ".ckpt" (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc "#sweep-checkpoint v3\na\tresult a\n");
      let log = ref [] in
      match render ~resume:true ~checkpoint:path (cells_of log) with
      | exception Invalid_argument msg ->
          check_bool "names the version" true
            (Option.is_some (String.index_opt msg '3'))
      | _ -> Alcotest.fail "accepted a v3 checkpoint")

let test_traced_sweep_marks_replays () =
  with_temp_file ".ckpt" (fun ckpt ->
      with_temp_file ".trace" (fun trace ->
          let log = ref [] in
          ignore (render ~checkpoint:ckpt (cells_of log));
          T.with_sink ~program:"test" ~path:trace (fun () ->
              ignore (render ~resume:true ~checkpoint:ckpt (cells_of log)));
          let records = T.read_file trace in
          let replayed =
            List.length
              (List.filter
                 (fun r ->
                   match r.T.ev with
                   | T.Cell_finish { status = "replayed"; _ } -> true
                   | _ -> false)
                 records)
          in
          check_int "both cells replayed" 2 replayed))

let () =
  Alcotest.run "trace"
    [
      ( "json",
        [
          Alcotest.test_case "canonical printing" `Quick test_json_canonical_printing;
          Alcotest.test_case "roundtrip byte-identical" `Quick
            test_json_roundtrip_byte_identical;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "codec",
        [
          Alcotest.test_case "fixture covers every kind" `Quick
            test_fixture_covers_every_kind;
          Alcotest.test_case "values roundtrip" `Quick test_values_roundtrip;
          Alcotest.test_case "event roundtrip" `Quick test_event_codec_roundtrip;
          Alcotest.test_case "newer version rejected" `Quick
            test_codec_rejects_newer_version;
          Alcotest.test_case "unknown event rejected" `Quick
            test_codec_rejects_unknown_event;
        ] );
      ( "sink",
        [
          Alcotest.test_case "ndjson roundtrip" `Quick test_sink_ndjson_roundtrip;
          Alcotest.test_case "nesting rejected" `Quick test_sink_rejects_nesting;
          Alcotest.test_case "full disk detaches" `Quick test_sink_on_full_disk;
          Alcotest.test_case "strict reader" `Quick test_read_file_strict;
        ] );
      ( "integration",
        [
          Alcotest.test_case "traced game spans" `Quick test_traced_game_has_spans;
          Alcotest.test_case "traced sweep replays" `Quick
            test_traced_sweep_marks_replays;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "v2 header with crc trailers" `Quick
            test_checkpoint_v2_header_written;
          Alcotest.test_case "v1 rejected" `Quick
            (rejected_checkpoint ~version:1
               "#sweep-checkpoint v1\na\tresult a\nb\tresult b\n");
          Alcotest.test_case "v0 rejected" `Quick
            (rejected_checkpoint ~version:0 "a\tresult a\nb\tresult b\n");
          Alcotest.test_case "newer rejected" `Quick
            test_checkpoint_newer_version_rejected;
          Alcotest.test_case "corrupt record skipped, rerun, fsck" `Quick
            test_checkpoint_corrupt_record_skipped_and_rerun;
        ] );
    ]
