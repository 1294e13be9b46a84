(* The two parts of Harness.Server, each driven on its own: the
   journal codec and recovery (pure), and the connection layer (over a
   socketpair, no listening socket).  The forked-server tests live in
   test_server. *)

module Server = Harness.Server
module Journal = Server.Journal
module Conn = Server.Conn
module Wire = Harness.Wire

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------ journal ------------------------------- *)

let job ?deadline_ms id = { Journal.id; kind = "k" ^ id; deadline_ms; payload = "p\t" ^ id }

let test_codec_roundtrip () =
  let records =
    [
      Journal.Accepted (job "a");
      Journal.Accepted (job ~deadline_ms:1001 "b");
      Journal.Finished { id = "a"; value = "out\x00{}" };
    ]
  in
  List.iter
    (fun r -> check_bool "round trip" true (Journal.decode (Journal.encode r) = Some r))
    records;
  check_bool "deadline field" true
    (snd (Journal.encode (List.nth records 1)) = "kb\t1001\tp\tb");
  List.iter
    (fun kv -> check_bool "foreign record" true (Journal.decode kv = None))
    [ ("j:", "x\t\ty"); ("x:a", "v"); ("j:a", "no tabs"); ("j:a", "one\ttab") ]

let test_recover () =
  let enc = Journal.encode in
  let records =
    [
      enc (Journal.Accepted (job "a"));
      enc (Journal.Accepted (job "b"));
      ("x:other", "skipped");
      enc (Journal.Finished { id = "a"; value = "first" });
      enc (Journal.Accepted (job ~deadline_ms:1001 "c"));
      ("j:d", "kd\t-5\tp");  (* a bad deadline decodes as the default *)
      enc (Journal.Accepted { (job "b") with kind = "again" });  (* the first j: counts *)
      enc (Journal.Finished { id = "a"; value = "last" });  (* the last d: counts *)
      enc (Journal.Finished { id = "zz"; value = "never accepted" });
    ]
  in
  let { Journal.cached; queued } = Journal.recover records in
  check_bool "cached" true (cached = [ (job "a", "last") ]);
  check_bool "queued, in acceptance order" true
    (queued
    = [
        job "b";
        job ~deadline_ms:1001 "c";
        { Journal.id = "d"; kind = "kd"; deadline_ms = None; payload = "p" };
      ])

(* ---------------------------- connections ----------------------------- *)

let socketpair () = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
let no_chaos = Server.Chaos.create None
let now = Unix.gettimeofday

(* Everything the peer has been sent until EOF or [expect] bytes. *)
let read_peer ?(expect = max_int) fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    if Buffer.length buf < expect then
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
  in
  go ();
  Buffer.contents buf

let frame_tag = function Some { Wire.tag; _ } -> String.make 1 tag | None -> "none"

let test_conn_frames_and_protocol_error () =
  let server_fd, peer = socketpair () in
  let conn = Conn.create ~chaos:no_chaos ~max_frame:1024 0 server_fd in
  Wire.write_all peer
    (Bytes.concat Bytes.empty
       [ Wire.encode ~tag:'P' ""; Wire.encode ~tag:'S' "x"; Bytes.of_string "Zjunk" ]);
  Conn.fill conn (Bytes.create 4096);
  check_string "first" "P" (frame_tag (Conn.next_frame conn));
  check_string "second" "S" (frame_tag (Conn.next_frame conn));
  check_string "garbage" "none" (frame_tag (Conn.next_frame conn));
  Conn.send conn (Wire.encode ~tag:'H' "ignored once closing");
  Conn.flush conn (now ());
  check_bool "closed after its error frame" true (Conn.closed conn);
  let dec = Wire.decoder ~tags:"E" () in
  Wire.feed_string dec (read_peer peer);
  (match Wire.decode dec with
  | Ok (Some { Wire.tag = 'E'; payload }) ->
      check_bool ("error names the tag: " ^ payload) true (String.contains payload 'Z')
  | _ -> Alcotest.fail "expected one E frame");
  check_bool "and nothing after it" true (Wire.decode dec = Ok None);
  Unix.close peer

(* A peer that stops reading: writes never block, the connection stops
   taking requests while its output is over the bound, and picks them
   up again once the peer has read. *)
let test_conn_backpressure () =
  let server_fd, peer = socketpair () in
  let conn = Conn.create ~chaos:no_chaos ~max_frame:1024 1 server_fd in
  Wire.write_all peer (Bytes.cat (Wire.encode ~tag:'P' "") (Wire.encode ~tag:'S' "x"));
  Conn.fill conn (Bytes.create 4096);
  check_string "served" "P" (frame_tag (Conn.next_frame conn));
  let reply = Wire.encode ~tag:'R' (String.make (4 lsl 20) 'x') in
  Conn.send conn reply;
  let t0 = now () in
  Conn.flush conn (now ());
  check_bool "a write does not wait for the peer" true (now () -. t0 < 1.);
  check_bool "output left over" true (Conn.unsent conn > 1 lsl 20);
  check_bool "no reading over the bound" false (Conn.wants_read conn);
  check_string "requests parked over the bound" "none" (frame_tag (Conn.next_frame conn));
  Unix.set_nonblock peer;
  let got = ref 0 and chunk = Bytes.create 65536 in
  while !got < Bytes.length reply do
    Conn.flush conn (now ());
    match Unix.read peer chunk 0 (Bytes.length chunk) with
    | n -> got := !got + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Unix.sleepf 0.001
  done;
  check_int "the whole reply arrived" (Bytes.length reply) !got;
  check_int "nothing unsent" 0 (Conn.unsent conn);
  check_bool "reading again" true (Conn.wants_read conn);
  check_string "the parked request" "S" (frame_tag (Conn.next_frame conn));
  Conn.close conn "eof";
  Unix.close peer

let test_conn_chaos_truncates () =
  let server_fd, peer = socketpair () in
  let chaos =
    Server.Chaos.create
      (Some { (Server.default_chaos ~seed:1) with truncate_frame = 1.; partial_frame = 0. })
  in
  let conn = Conn.create ~chaos ~max_frame:1024 2 server_fd in
  let frame = Wire.encode ~tag:'R' "0123456789" in
  (* an injection's only record is its trace event *)
  let fired = ref [] in
  Obs.Trace.set_hook
    (Some (function Obs.Trace.Chaos_injected { kind } -> fired := kind :: !fired | _ -> ()));
  Fun.protect ~finally:(fun () -> Obs.Trace.set_hook None) (fun () ->
      Conn.send conn frame;
      Conn.flush conn (now ()));
  check_bool "closed" true (Conn.closed conn);
  Alcotest.(check (list string)) "injected" [ "truncate_frame" ] !fired;
  check_string "the peer saw half a frame, then EOF"
    (Bytes.sub_string frame 0 (Bytes.length frame / 2))
    (read_peer peer);
  Unix.close peer

let () =
  Alcotest.run "server-parts"
    [
      ( "journal",
        [
          Alcotest.test_case "codec round trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "recover" `Quick test_recover;
        ] );
      ( "conn",
        [
          Alcotest.test_case "frames and protocol error" `Quick
            test_conn_frames_and_protocol_error;
          Alcotest.test_case "slow reader backpressure" `Quick test_conn_backpressure;
          Alcotest.test_case "chaos truncates" `Quick test_conn_chaos_truncates;
        ] );
    ]
