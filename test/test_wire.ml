(* Harness.Wire: the shared length-prefixed framing codec.

   The robustness contract under test: decoding is total (frames or a
   typed error, never an exception), a hostile declared length is
   rejected before any allocation, and a decoder that errored stays
   poisoned.  The wire-codec fuzz target sweeps the same properties
   over random mangled streams; these are the deterministic anchors. *)

module Wire = Harness.Wire

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let frame_eq (t1, p1) { Wire.tag; payload } = t1 = tag && p1 = payload

let decode_all dec =
  let rec go acc =
    match Wire.decode dec with
    | Ok None -> (List.rev acc, None)
    | Ok (Some f) -> go (f :: acc)
    | Error e -> (List.rev acc, Some e)
  in
  go []

let test_roundtrip () =
  let dec = Wire.decoder ~tags:"RE" ~bare:"H" () in
  let frames = [ ('R', "result"); ('E', ""); ('R', "a\nb\tc\x00d") ] in
  List.iter
    (fun (tag, payload) ->
      Wire.feed_string dec (Bytes.to_string (Wire.encode ~tag payload)))
    frames;
  Wire.feed_string dec (Bytes.to_string (Wire.encode_bare 'H'));
  let decoded, err = decode_all dec in
  check_bool "no error" true (err = None);
  check_int "frame count" 4 (List.length decoded);
  List.iteri
    (fun i f ->
      let expect = if i = 3 then ('H', "") else List.nth frames i in
      check_bool (Printf.sprintf "frame %d" i) true (frame_eq expect f))
    decoded;
  check_int "buffer drained" 0 (Wire.buffered dec)

let test_byte_at_a_time () =
  let dec = Wire.decoder ~tags:"R" () in
  let wire = Bytes.to_string (Wire.encode ~tag:'R' "split me") in
  let seen = ref [] in
  String.iter
    (fun c ->
      Wire.feed_string dec (String.make 1 c);
      match Wire.decode dec with
      | Ok (Some f) -> seen := f :: !seen
      | Ok None -> ()
      | Error e -> Alcotest.failf "unexpected error: %s" (Wire.error_to_string e))
    wire;
  match !seen with
  | [ f ] ->
      check_bool "the one frame arrives on the last byte" true
        (frame_eq ('R', "split me") f)
  | l -> Alcotest.failf "expected exactly one frame, got %d" (List.length l)

let test_unknown_tag_poisons () =
  let dec = Wire.decoder ~tags:"R" ~bare:"H" () in
  Wire.feed_string dec "Z";
  (match Wire.decode dec with
  | Error (Wire.Unknown_tag 'Z') -> ()
  | other ->
      Alcotest.failf "expected Unknown_tag 'Z', got %s"
        (match other with
        | Ok _ -> "Ok"
        | Error e -> Wire.error_to_string e));
  (* the error is sticky, and feeding more is a no-op *)
  Wire.feed_string dec (Bytes.to_string (Wire.encode ~tag:'R' "late"));
  (match Wire.decode dec with
  | Error (Wire.Unknown_tag 'Z') -> ()
  | _ -> Alcotest.fail "poisoned decoder must keep returning its error");
  check_int "poisoned buffer holds nothing" 0 (Wire.buffered dec)

let test_oversized_before_allocation () =
  let dec = Wire.decoder ~max_payload:1024 ~tags:"R" () in
  (* header declaring 256 MiB: error on the 5 header bytes alone *)
  let header = Bytes.create 5 in
  Bytes.set header 0 'R';
  Bytes.set_int32_be header 1 (Int32.of_int (256 * 1024 * 1024));
  Wire.feed_string dec (Bytes.to_string header);
  (match Wire.decode dec with
  | Error (Wire.Oversized { tag = 'R'; declared; limit }) ->
      check_int "declared" (256 * 1024 * 1024) declared;
      check_int "limit" 1024 limit
  | _ -> Alcotest.fail "expected Oversized");
  check_bool "nothing proportional to the declared length is held" true
    (Wire.buffered dec <= 5)

let test_negative_length () =
  let dec = Wire.decoder ~tags:"R" () in
  let header = Bytes.create 5 in
  Bytes.set header 0 'R';
  Bytes.set_int32_be header 1 0x80000001l;
  Wire.feed_string dec (Bytes.to_string header);
  match Wire.decode dec with
  | Error (Wire.Negative_length { tag = 'R' }) -> ()
  | _ -> Alcotest.fail "expected Negative_length"

let test_exact_limit_is_fine () =
  let dec = Wire.decoder ~max_payload:8 ~tags:"R" () in
  Wire.feed_string dec (Bytes.to_string (Wire.encode ~tag:'R' "12345678"));
  match Wire.decode dec with
  | Ok (Some f) -> check_string "payload at the cap" "12345678" f.Wire.payload
  | _ -> Alcotest.fail "a payload of exactly max_payload must decode"

let test_truncated_is_silent () =
  let dec = Wire.decoder ~tags:"R" () in
  let wire = Bytes.to_string (Wire.encode ~tag:'R' "whole payload") in
  Wire.feed_string dec (String.sub wire 0 (String.length wire - 3));
  (match Wire.decode dec with
  | Ok None -> ()
  | _ -> Alcotest.fail "a truncated frame is just not-yet-complete");
  Wire.feed_string dec (String.sub wire (String.length wire - 3) 3);
  match Wire.decode dec with
  | Ok (Some f) -> check_bool "completes later" true (frame_eq ('R', "whole payload") f)
  | _ -> Alcotest.fail "frame must complete once the bytes arrive"

let test_overlapping_alphabets_rejected () =
  Alcotest.check_raises "tags/bare overlap"
    (Invalid_argument "Wire.decoder: a tag cannot be both framed and bare")
    (fun () -> ignore (Wire.decoder ~tags:"RH" ~bare:"H" ()))

let test_supervisor_compat_bytes () =
  (* the extraction must not have changed the supervisor's wire bytes:
     'H' is one bare byte, a framed reply is tag + BE length + payload *)
  check_string "bare ready byte" "H"
    (Bytes.to_string (Wire.encode_bare 'H'));
  check_string "framed reply image" "R\x00\x00\x00\x02ok"
    (Bytes.to_string (Wire.encode ~tag:'R' "ok"))

let () =
  Alcotest.run "wire"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "byte-at-a-time" `Quick test_byte_at_a_time;
          Alcotest.test_case "unknown tag poisons" `Quick test_unknown_tag_poisons;
          Alcotest.test_case "oversized before allocation" `Quick
            test_oversized_before_allocation;
          Alcotest.test_case "negative length" `Quick test_negative_length;
          Alcotest.test_case "exact limit decodes" `Quick test_exact_limit_is_fine;
          Alcotest.test_case "truncation is silent" `Quick test_truncated_is_silent;
          Alcotest.test_case "overlapping alphabets rejected" `Quick
            test_overlapping_alphabets_rejected;
          Alcotest.test_case "supervisor wire bytes unchanged" `Quick
            test_supervisor_compat_bytes;
        ] );
    ]
