(* The observability layer: canonical JSON, the NDJSON trace codec and
   sink, the sharded metrics registry, and the versioned sweep
   checkpoint header. *)

open Online_local
module J = Obs.Json
module T = Obs.Trace
module Mx = Obs.Metrics

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

(* One of each event variant: the codec round-trip must cover the whole
   type, so adding an event without a decoder breaks this test. *)
let all_events =
  [
    T.Trace_header { version = T.version; program = "test" };
    T.Cell_start { key = "t=1 k=6" };
    T.Cell_finish { key = "t=1 k=6"; status = "ok" };
    T.Checkpoint_flush { key = "t=1 k=6"; bytes = 41 };
    T.Worker_start { index = 2 };
    T.Worker_stop { index = 2; tasks = 7 };
    T.Game_start
      {
        adversary = "thm1-grid";
        algorithm = "greedy";
        n = 40;
        max_color_calls = Some 100;
        max_work = None;
        deadline = Some 1.5;
      };
    T.Game_verdict
      {
        adversary = "thm1-grid";
        algorithm = "greedy";
        n = 40;
        outcome = "DEFEATED";
        guaranteed = true;
        color_calls = 17;
        work = 990;
      };
    T.Step { executor = "virtual_grid"; step = 3; target = 12; revealed = 30; max_view = 30 };
    T.Reveal { executor = "virtual_grid"; step = 3; fresh = 5; revealed = 30 };
    T.Color_call { calls = 17; work = 990 };
    T.Audit { executor = "fixed_host"; ok = false; detail = "monochromatic edge 0 -- 1" };
    T.Fault_injected { tag = "wrong-color"; call = 4 };
    T.Misbehavior { label = "raised"; detail = "raised: Failure" };
    T.Journal_corrupt { path = "j.journal"; line = 7; reason = "torn record" };
    T.Fleet_start { endpoints = 2; jobs = 8; shard_seed = 0 };
    T.Endpoint_state { endpoint = "/tmp/a.sock"; state = "up" };
    T.Failover { id = "deadbeef"; src = "/tmp/a.sock"; dst = "tcp:7002" };
    T.Rebalance { moved = 3; src = "/tmp/a.sock"; dst = "tcp:7002" };
    T.Fleet_verdict { verdict = "FULL"; results = 5; failovers = 0; duplicates = 0 };
  ]

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

(* ----------------------------- metrics ----------------------------- *)

let test_metrics_disabled_records_nothing () =
  Mx.reset ();
  Mx.disable ();
  Mx.incr "nope";
  Mx.observe "nope.hist" 3;
  let s = Mx.drain () in
  check_int "no counters" 0 (List.length s.Mx.counters);
  check_int "no hists" 0 (List.length s.Mx.hists)

let test_metrics_merge_and_pp () =
  Mx.reset ();
  Mx.enable ();
  Fun.protect
    ~finally:(fun () ->
      Mx.disable ();
      Mx.reset ())
    (fun () ->
      Mx.incr "c.one";
      Mx.add "c.one" 4;
      Mx.gauge_max "g.peak" 10;
      Mx.gauge_max "g.peak" 7;
      Mx.observe "h.sizes" 1;
      Mx.observe "h.sizes" 6;
      let s = Mx.drain () in
      check_bool "counter summed" true (List.assoc "c.one" s.Mx.counters = 5);
      check_bool "gauge maxed" true (List.assoc "g.peak" s.Mx.gauges = 10);
      let h = List.assoc "h.sizes" s.Mx.hists in
      check_int "hist count" 2 h.Mx.count;
      check_int "hist sum" 7 h.Mx.sum;
      check_int "hist max" 6 h.Mx.max_value;
      check_int "1 lands in bucket 1" 1 h.Mx.buckets.(Mx.bucket_of 1);
      check_int "6 lands in bucket 3" 1 h.Mx.buckets.(Mx.bucket_of 6))

let drain_to_string () = Format.asprintf "%a" Mx.pp (Mx.drain ())

(* The determinism contract: a fixed workload drains byte-identical
   totals however it was spread over domains. *)
let metrics_workload jobs =
  Mx.reset ();
  Mx.enable ();
  Fun.protect
    ~finally:(fun () ->
      Mx.disable ();
      Mx.reset ())
    (fun () ->
      Harness.Pool.run ~jobs ~tasks:16
        ~work:(fun i ->
          Mx.incr "tasks.run";
          Mx.add "tasks.sum" i;
          Mx.gauge_max "tasks.max" i;
          Mx.observe "tasks.hist" (i + 1);
          i)
        ~consume:(fun _ _ -> ());
      drain_to_string ())

let test_metrics_jobs_invariant () =
  let sequential = metrics_workload 1 in
  let parallel = metrics_workload 4 in
  check_string "drained registry identical at jobs=1 and jobs=4" sequential parallel;
  check_bool "registry is non-trivial" true
    (String.length sequential > 0
    && Option.is_some
         (String.index_opt sequential 't') (* has the tasks.* names *))

let test_bucket_bounds () =
  check_int "bucket of 0" 0 (Mx.bucket_of 0);
  check_int "bucket of 1" 1 (Mx.bucket_of 1);
  check_int "bucket of 7" 3 (Mx.bucket_of 7);
  check_int "bucket of 8" 4 (Mx.bucket_of 8);
  List.iter
    (fun v ->
      check_bool "bucket_lo <= v" true (Mx.bucket_lo (Mx.bucket_of v) <= v))
    [ 1; 2; 3; 7; 8; 100; 4096; max_int ]

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

let test_checkpoint_v1_still_replays () =
  (* A v1 journal (header, no CRC trailers) keeps replaying unchanged. *)
  with_temp_file ".ckpt" (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            "#sweep-checkpoint v1\na\tresult a\nb\tresult b\n");
      let log = ref [] in
      let out = render ~resume:true ~checkpoint:path (cells_of log) in
      check_int "nothing reran" 0 (List.length !log);
      check_string "replayed v1 results" "result a\nresult b\n" out)

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
          check_int "fsck version" 2 report.Harness.Sweep.Journal.version;
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

let test_checkpoint_v0_headerless_still_replays () =
  (* A checkpoint written before versioning has no header line; it must
     keep resuming. *)
  with_temp_file ".ckpt" (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc "a\tresult a\nb\tresult b\n");
      let log = ref [] in
      let out = render ~resume:true ~checkpoint:path (cells_of log) in
      check_int "nothing reran" 0 (List.length !log);
      check_string "replayed v0 results" "result a\nresult b\n" out)

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
          Alcotest.test_case "strict reader" `Quick test_read_file_strict;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "disabled is inert" `Quick
            test_metrics_disabled_records_nothing;
          Alcotest.test_case "merge and pp" `Quick test_metrics_merge_and_pp;
          Alcotest.test_case "jobs-count invariant" `Quick test_metrics_jobs_invariant;
          Alcotest.test_case "bucket bounds" `Quick test_bucket_bounds;
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
          Alcotest.test_case "v1 replays" `Quick test_checkpoint_v1_still_replays;
          Alcotest.test_case "v0 replays" `Quick
            test_checkpoint_v0_headerless_still_replays;
          Alcotest.test_case "newer rejected" `Quick
            test_checkpoint_newer_version_rejected;
          Alcotest.test_case "corrupt record skipped, rerun, fsck" `Quick
            test_checkpoint_corrupt_record_skipped_and_rerun;
        ] );
    ]
