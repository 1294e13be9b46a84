(* Harness.Server + Harness.Client: the resilient job server.

   Every test forks the server into a child process (so SIGTERM drains
   and crash-recovery restarts are the real thing, not simulations) and
   drives it with the real client over a Unix-domain socket.  The
   anchor assertion throughout: campaign results are byte-identical to
   a local map of the handler over the same specs — whatever the
   server's jobs count, chaos setting, or how many times it was killed
   and restarted in between. *)

module Server = Harness.Server
module Client = Harness.Client
module Backoff = Harness.Backoff

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let fast_backoff = { Backoff.base = 0.002; max = 0.02; seed = 0x5EED }

(* The deterministic test handler.  Kinds:
     rev    -> the payload reversed
     upper  -> uppercased, multi-line results preserved
     fail   -> raises (the typed ERROR path)
     slow   -> sleeps 30 ms, then echoes (drain / backpressure fodder)
     nap    -> sleeps [payload] seconds, then echoes
     hang   -> sleeps a minute (watchdog fodder)
     suicide -> SIGKILLs its own process (crash fodder) *)
let handler ~kind ~payload =
  match kind with
  | "rev" -> String.init (String.length payload) (fun i ->
        payload.[String.length payload - 1 - i])
  | "upper" -> String.uppercase_ascii payload
  | "fail" -> failwith ("no can do: " ^ payload)
  | "slow" ->
      Unix.sleepf 0.03;
      "slept for " ^ payload
  | "nap" ->
      Unix.sleepf (float_of_string payload);
      "napped " ^ payload
  | "hang" ->
      Unix.sleepf 60.;
      "woke up"
  | "suicide" ->
      Unix.kill (Unix.getpid ()) Sys.sigkill;
      "unreachable"
  | other -> failwith ("unknown kind: " ^ other)

(* What the server must answer for one spec — computed locally, the
   serverless baseline of the byte-identity contract. *)
let expected (kind, payload) =
  match handler ~kind ~payload with
  | r -> r
  | exception Failure msg -> "ERROR: Failure(\"" ^ msg ^ "\")"

let contains ~sub s =
  let n = String.length sub in
  let rec find i = i + n <= String.length s && (String.sub s i n = sub || find (i + 1)) in
  find 0

let temp_path suffix =
  let path = Filename.temp_file "server_test" suffix in
  (try Sys.remove path with Sys_error _ -> ());
  path

let fork_server ?(handler = handler) ?journal ?resume ~config ~socket () =
  match Unix.fork () with
  | 0 ->
      (try Server.run ~config ?journal ?resume ~socket ~handler () with _ -> ());
      Unix._exit 0
  | pid -> pid

let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

let with_server ?handler ?journal ?resume ~config f =
  let socket = temp_path ".sock" in
  let pid = fork_server ?handler ?journal ?resume ~config ~socket () in
  Fun.protect
    ~finally:(fun () ->
      stop_server pid;
      try Sys.remove socket with Sys_error _ -> ())
    (fun () -> f ~socket ~pid)

let campaign ?(window = 16) ?max_attempts ~socket specs =
  Client.run_campaign ~backoff:fast_backoff ~window ?max_attempts ~socket specs

let mixed_specs =
  [
    ("rev", "stressed");
    ("upper", "two\nlines");
    ("fail", "boom");
    ("rev", "");
    ("upper", "last one");
  ]

let fast_supervisor =
  { Harness.Supervisor.default_config with backoff = fast_backoff; kill_grace = 0.1 }

let fast_config jobs = { Server.default_config with Server.jobs; supervisor = fast_supervisor }

(* ------------------------- basic round trips ------------------------- *)

let test_basic_roundtrip () =
  with_server ~config:(fast_config 2) @@ fun ~socket ~pid:_ ->
  let c = campaign ~socket mixed_specs in
  check_int "all results" (List.length mixed_specs) (List.length c.Client.results);
  List.iteri
    (fun i (spec, got) ->
      check_string (Printf.sprintf "result %d" i) (expected spec) got)
    (List.combine mixed_specs c.Client.results)

let test_results_jobs_isolation_invariant () =
  let baseline = List.map expected mixed_specs in
  List.iter
    (fun jobs ->
      with_server ~config:(fast_config jobs) @@ fun ~socket ~pid:_ ->
      let c = campaign ~socket mixed_specs in
      List.iteri
        (fun i (want, got) ->
          check_string (Printf.sprintf "proc/%d result %d" jobs i) want got)
        (List.combine baseline c.Client.results))
    [ 1; 4 ]

let test_dedup_duplicate_specs () =
  with_server ~config:(fast_config 2) @@ fun ~socket ~pid:_ ->
  (* the same spec three times: one job server-side, three results *)
  let specs = [ ("rev", "same"); ("rev", "same"); ("rev", "same") ] in
  let c = campaign ~socket specs in
  List.iter (fun got -> check_string "deduped result" "emas" got) c.Client.results;
  let health =
    match Client.health ~socket () with
    | Ok json -> json
    | Error (`Unreachable reason) -> Alcotest.failf "health unreachable: %s" reason
  in
  check_bool "server ran exactly one job" true (contains ~sub:"\"completed\":1" health)

let test_health () =
  with_server ~config:(fast_config 1) @@ fun ~socket ~pid:_ ->
  let retry_oneshot f =
    (* the forked server may still be binding; retry briefly *)
    let rec go n =
      match f () with
      | Ok v -> v
      | Error (`Unreachable _) when n > 0 ->
          Unix.sleepf 0.02;
          go (n - 1)
      | Error (`Unreachable reason) ->
          Alcotest.failf "server still unreachable: %s" reason
    in
    go 100
  in
  let health = retry_oneshot (fun () -> Client.health ~socket ()) in
  check_bool "health mentions status" true
    (String.length health > 0 && health.[0] = '{')

let test_health_unreachable_is_typed () =
  (* no server behind this path: the health one-shot answers with a typed
     [`Unreachable], never a bare exception *)
  let socket = temp_path ".sock" in
  match Client.health ~socket () with
  | Ok json -> Alcotest.failf "health of a missing socket answered: %s" json
  | Error (`Unreachable reason) ->
      check_bool "unreachable reason is non-empty" true (String.length reason > 0)

(* --------------------------- backpressure ---------------------------- *)

let test_bounded_queue_rejects_and_recovers () =
  let config = { (fast_config 1) with Server.queue_limit = 1 } in
  with_server ~config @@ fun ~socket ~pid:_ ->
  let specs = List.init 6 (fun i -> ("slow", string_of_int i)) in
  let c = campaign ~window:6 ~socket specs in
  (* every job still completes, with correct bytes, through the retries *)
  List.iteri
    (fun i (spec, got) ->
      check_string (Printf.sprintf "result %d" i) (expected spec) got)
    (List.combine specs c.Client.results);
  check_bool "the bounded queue rejected at least one submit" true
    (c.Client.rejections > 0)

(* ------------------------ drain and recovery ------------------------- *)

(* Submit every spec raw (no waiting for results) and return once the
   server has acknowledged all of them — i.e. admitted and journaled
   them — so a SIGTERM right after lands with most of the queue
   outstanding. *)
let raw_submit_all ~socket specs =
  let module Wire = Harness.Wire in
  let addr = Unix.ADDR_UNIX socket in
  let rec conn tries =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> fd
    | exception Unix.Unix_error _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if tries = 0 then Alcotest.fail "cannot reach forked server";
        Unix.sleepf 0.02;
        conn (tries - 1)
  in
  let fd = conn 250 in
  List.iter
    (fun (kind, payload) ->
      let frame = Wire.encode ~tag:'S' (kind ^ "\t\n" ^ payload) in
      ignore (Unix.write fd frame 0 (Bytes.length frame)))
    specs;
  let dec = Wire.decoder ~tags:"ARXE" () in
  let buf = Bytes.create 4096 in
  let rec wait acks =
    if acks < List.length specs then
      match Wire.decode dec with
      | Ok (Some { Wire.tag = 'A'; _ }) -> wait (acks + 1)
      | Ok (Some _) -> wait acks
      | Error _ -> Alcotest.fail "raw submit: protocol error"
      | Ok None -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> Alcotest.fail "raw submit: server closed before acking"
          | n ->
              Wire.feed dec buf 0 n;
              wait acks)
  in
  wait 0;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* SIGTERM the server with acknowledged jobs still queued/running,
   restart it on the same journal with ~resume, and run the full
   campaign against the restarted server.  The results must be
   byte-identical to the serverless baseline: nothing lost to the
   drain, nothing recomputed into a different answer. *)
let drain_recovery_scenario ~jobs () =
  let config = fast_config jobs in
  let journal = temp_path ".journal" in
  let socket = temp_path ".sock" in
  let specs = List.init 12 (fun i -> ("slow", Printf.sprintf "job-%d" i)) in
  let baseline = List.map expected specs in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove journal with Sys_error _ -> ());
      try Sys.remove socket with Sys_error _ -> ())
    (fun () ->
      (* phase 1: admit all 12 slow jobs, then drain immediately —
         in-flight ones finish during the drain, the rest stay only in
         the journal *)
      let pid1 = fork_server ~journal ~resume:false ~config ~socket () in
      raw_submit_all ~socket specs;
      stop_server pid1;
      (* phase 2: restart on the same journal and finish the campaign *)
      let pid2 = fork_server ~journal ~resume:true ~config ~socket () in
      Fun.protect
        ~finally:(fun () -> stop_server pid2)
        (fun () ->
          let c = campaign ~window:12 ~socket specs in
          List.iteri
            (fun i (want, got) ->
              check_string (Printf.sprintf "proc/%d result %d" jobs i) want got)
            (List.combine baseline c.Client.results)))

(* A journal written by a drained server replays: finished jobs are
   served from the journal (status cached), unfinished re-run. *)
let test_journal_replay_serves_cached () =
  let config = fast_config 2 in
  let journal = temp_path ".journal" in
  let specs = [ ("rev", "cache me"); ("fail", "cached error") ] in
  Fun.protect
    ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
    (fun () ->
      (with_server ~journal ~resume:false ~config @@ fun ~socket ~pid:_ ->
       let c1 = campaign ~socket specs in
       check_int "first pass results" 2 (List.length c1.Client.results);
       (* second campaign on the same server: all cached *)
       let c2 = campaign ~socket specs in
       List.iter2
         (fun a b -> check_string "cached equals fresh" a b)
         c1.Client.results c2.Client.results);
      (* a FRESH server process on the same journal serves from it *)
      with_server ~journal ~resume:true ~config @@ fun ~socket ~pid:_ ->
      let c3 = campaign ~socket specs in
      List.iteri
        (fun i (spec, got) ->
          check_string (Printf.sprintf "replayed result %d" i) (expected spec) got)
        (List.combine specs c3.Client.results))

(* ---------------------------- containment ---------------------------- *)

(* The engine's watchdog and crash-retry paths, pinned by the exact
   result strings a campaign sees.  Chaos kills never reach these
   paths (they are charged no retry), so only these cases do. *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let ends_with ~suffix s =
  let n = String.length suffix and m = String.length s in
  m >= n && String.sub s (m - n) n = suffix

let check_unresponsive what got =
  (* "(limit 0.100s)" and not "(limit 0.100s, forced SIGKILL)": the
     child must die of the watchdog's SIGTERM, not of the escalation *)
  check_bool (what ^ ": " ^ got) true
    (starts_with ~prefix:"QUARANTINED after 1 attempts: unresponsive after " got
    && ends_with ~suffix:"(limit 0.100s)" got)

let test_default_deadline_quarantines () =
  let config =
    {
      (fast_config 1) with
      Server.supervisor = { fast_supervisor with retries = 0; timeout = Some 0.1 };
    }
  in
  with_server ~config @@ fun ~socket ~pid:_ ->
  match (campaign ~socket [ ("hang", "default") ]).Client.results with
  | [ got ] -> check_unresponsive "default deadline" got
  | _ -> Alcotest.fail "expected one result"

let test_crash_retries_then_quarantines () =
  with_server ~config:(fast_config 1) @@ fun ~socket ~pid:_ ->
  match (campaign ~socket [ ("suicide", "thrice") ]).Client.results with
  | [ got ] ->
      check_string "three SIGKILLed attempts"
        "QUARANTINED after 3 attempts: killed by SIGKILL; killed by SIGKILL; \
         killed by SIGKILL"
        got
  | _ -> Alcotest.fail "expected one result"

let test_submit_deadline_wins () =
  let config =
    {
      (fast_config 1) with
      Server.supervisor = { fast_supervisor with retries = 0; timeout = Some 10. };
    }
  in
  with_server ~config @@ fun ~socket ~pid:_ ->
  match
    (Client.run_campaign ~backoff:fast_backoff ~deadline:0.1 ~socket
       [ ("hang", "per-submit") ])
      .Client.results
  with
  | [ got ] -> check_unresponsive "per-submit deadline" got
  | _ -> Alcotest.fail "expected one result"

(* SIGKILL the server mid-campaign — once its journal holds a finished
   job — and restart it on the same journal with ~resume.  The campaign
   that was running through the kill reconnects to the new server and
   must return byte-identical results. *)
let sigkill_resume_scenario ~jobs () =
  let config = fast_config jobs in
  let journal = temp_path ".journal" in
  let socket = temp_path ".sock" in
  let specs = List.init 24 (fun i -> ("slow", Printf.sprintf "kill-%d" i)) in
  let pid1 = fork_server ~journal ~resume:false ~config ~socket () in
  let restarted =
    match Unix.fork () with
    | 0 ->
        let finished () =
          contains ~sub:"\nd:"
            (try In_channel.with_open_bin journal In_channel.input_all with Sys_error _ -> "")
        in
        let give_up = Unix.gettimeofday () +. 10. in
        while (not (finished ())) && Unix.gettimeofday () < give_up do
          Unix.sleepf 0.002
        done;
        Unix.kill pid1 Sys.sigkill;
        (try Server.run ~config ~journal ~resume:true ~socket ~handler () with _ -> ());
        Unix._exit 0
    | pid -> pid
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.waitpid [] pid1);
      stop_server restarted;
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ journal; socket ])
    (fun () ->
      let c = campaign ~window:24 ~socket specs in
      check_bool "the kill landed mid-campaign" true (c.Client.reconnects > 0);
      List.iteri
        (fun i (spec, got) -> check_string (Printf.sprintf "result %d" i) (expected spec) got)
        (List.combine specs c.Client.results))

(* A client that submits a job with a 4 MB reply and never reads it
   must not stall the server for anyone else. *)
let test_slow_reader () =
  with_server ~config:(fast_config 2) @@ fun ~socket ~pid:_ ->
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let rec connect tries =
    try Unix.connect fd (Unix.ADDR_UNIX socket)
    with Unix.Unix_error _ when tries > 0 ->
      Unix.sleepf 0.02;
      connect (tries - 1)
  in
  connect 250;
  Harness.Wire.write_all fd
    (Harness.Wire.encode ~tag:'S' ("rev\t\n" ^ String.make (4 lsl 20) 'x'));
  Unix.sleepf 0.3;
  let t0 = Unix.gettimeofday () in
  match Client.health ~recv_timeout:2. ~socket () with
  | Ok _ -> check_bool "health answered within 2 s" true (Unix.gettimeofday () -. t0 < 2.)
  | Error (`Unreachable reason) -> Alcotest.failf "health while a reply waits: %s" reason

(* Run [f] in a child and report how it ended: the parent kills it after
   [seconds], so a client that would retry forever fails the test
   instead of hanging it. *)
let within ~seconds f =
  match Unix.fork () with
  | 0 ->
      let code = match f () with () -> 0 | exception Failure _ -> 1 | exception _ -> 2 in
      Unix._exit code
  | pid ->
      let give_up = Unix.gettimeofday () +. seconds in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Unix.gettimeofday () < give_up ->
            Unix.sleepf 0.01;
            wait ()
        | 0, _ ->
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            `Timed_out
        | _, Unix.WEXITED 0 -> `Returned
        | _, Unix.WEXITED 1 -> `Failure
        | _ -> `Other
      in
      wait ()

(* Refused before connecting: there is nothing behind this socket. *)
let test_malformed_kind_refused () =
  let socket = temp_path ".sock" in
  List.iter
    (fun (what, kind, deadline) ->
      match Client.run_campaign ?deadline ~max_attempts:1 ~socket [ (kind, "x") ] with
      | _ -> Alcotest.failf "%s: campaign returned" what
      | exception Invalid_argument _ -> ()
      | exception e -> Alcotest.failf "%s: %s" what (Printexc.to_string e))
    [
      ("empty kind", "", None);
      ("kind with TAB", "a\tb", None);
      ("kind with LF", "a\nb", None);
      ("0 ms deadline", "rev", Some 0.0004);
    ]

(* The server's 'E' answer ends the campaign instead of a retry loop. *)
let test_error_reply_fails () =
  let config = { (fast_config 1) with Server.max_frame = 256 } in
  with_server ~config @@ fun ~socket ~pid:_ ->
  match
    within ~seconds:10. (fun () ->
        ignore (campaign ~max_attempts:3 ~socket [ ("rev", String.make 1024 'x') ]))
  with
  | `Failure -> ()
  | `Timed_out -> Alcotest.fail "campaign still retrying after 10 s"
  | `Returned | `Other -> Alcotest.fail "campaign did not fail with Failure"

(* The server keeps no stats of its own (its trace is the record): the
   retired stats request 'T' is an unknown tag, answered with 'E'. *)
let test_stats_request_refused () =
  with_server ~config:(fast_config 1) @@ fun ~socket ~pid:_ ->
  let addr = Client.sockaddr_of_spec socket in
  (* the forked server may still be binding; retry briefly *)
  let rec connect n =
    let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> fd
    | exception Unix.Unix_error _ when n > 0 ->
        Unix.close fd;
        Unix.sleepf 0.02;
        connect (n - 1)
  in
  let fd = connect 100 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Harness.Wire.write_all fd (Harness.Wire.encode ~tag:'T' "");
  (* 'U' was the stats reply: decoding it fails the check below, not here *)
  let dec = Harness.Wire.decoder ~tags:"ARXHUE" () and chunk = Bytes.create 4096 in
  let rec reply () =
    match Harness.Wire.decode dec with
    | Ok (Some frame) -> frame
    | Ok None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Alcotest.fail "EOF before any reply"
        | n ->
            Harness.Wire.feed dec chunk 0 n;
            reply ())
    | Error e -> Alcotest.failf "bad reply: %s" (Harness.Wire.error_to_string e)
  in
  let { Harness.Wire.tag; payload } = reply () in
  check_string ("reply tag, payload " ^ payload) "E" (String.make 1 tag)

let test_dead_socket_bound () =
  let socket = temp_path ".sock" in
  match campaign ~max_attempts:3 ~socket [ ("rev", "x") ] with
  | _ -> Alcotest.fail "a campaign against a missing socket returned"
  | exception Failure _ -> ()

(* --deadline-ms 1001 reaches the journal as 1001, not 1000. *)
let test_deadline_ms_exact () =
  let journal = temp_path ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove journal with Sys_error _ -> ())
  @@ fun () ->
  (with_server ~journal ~config:(fast_config 1) @@ fun ~socket ~pid:_ ->
   ignore
     (Client.run_campaign ~backoff:fast_backoff ~deadline:(1001. /. 1000.) ~socket
        [ ("rev", "deadline") ]));
  let records = Harness.Sweep.Journal.load journal in
  let accepted =
    List.filter (fun (key, _) -> String.length key > 2 && String.sub key 0 2 = "j:") records
  in
  (match accepted with
  | [ (_, value) ] ->
      check_string "deadline field" "1001" (List.nth (String.split_on_char '\t' value) 1)
  | _ -> Alcotest.fail "expected one j: record");
  match (Server.Journal.recover records).Server.Journal.cached with
  | [ ({ Server.Journal.deadline_ms = Some ms; _ }, _) ] ->
      Alcotest.(check (float 0.)) "seconds" 1.001 (float_of_int ms /. 1000.)
  | _ -> Alcotest.fail "expected one cached job with a deadline"

(* --------------------------- the job catalog --------------------------- *)

(* Some fuzz targets own process-wide state: sweep-kill forks,
   sweep-resume installs a SIGINT handler and writes temporary
   checkpoint files, and stats-merge owns the stats registry.  Served
   next to a thm2 job, each must answer the status line that
   [fuzz.exe --targets T --seed 1 --cases 4] prints. *)
let test_serial_fuzz_jobs () =
  let thm2 = ("thm2", "wrap=torus side=13 algo=greedy") in
  let specs =
    List.map
      (fun target -> ("fuzz", Printf.sprintf "target=%s seed=1 cases=4" target))
      [ "sweep-kill"; "sweep-resume"; "stats-merge" ]
    @ [ thm2 ]
  in
  let baseline =
    [
      "sweep-kill: PASS (4 cases)";
      "sweep-resume: PASS (4 cases)";
      "stats-merge: PASS (4 cases)";
      Jobs_catalog.handler ~kind:(fst thm2) ~payload:(snd thm2);
    ]
  in
  List.iter
    (fun jobs ->
      with_server ~handler:Jobs_catalog.handler ~config:(fast_config jobs)
      @@ fun ~socket ~pid:_ ->
      let c = campaign ~socket specs in
      List.iteri
        (fun i (want, got) -> check_string (Printf.sprintf "jobs=%d result %d" jobs i) want got)
        (List.combine baseline c.Client.results))
    [ 1; 2 ]

(* stats-merge and sweep-kill both fork workers of their own and touch
   process-wide state; at jobs 1 they run one after the other on one
   warm worker and must still answer as fuzz.exe does.  Neither spawns
   a domain any more, so the rule that retires a worker whose task did
   (OCaml 5.1 refuses Unix.fork for the rest of a process's life once a
   domain was spawned) is tested in test_supervisor. *)
let test_fork_after_domain () =
  let specs =
    List.map
      (fun target -> ("fuzz", Printf.sprintf "target=%s seed=1 cases=4" target))
      [ "stats-merge"; "sweep-kill" ]
  in
  with_server ~handler:Jobs_catalog.handler ~config:(fast_config 1) @@ fun ~socket ~pid:_ ->
  let c = campaign ~socket specs in
  List.iteri
    (fun i (want, got) -> check_string (Printf.sprintf "result %d" i) want got)
    (List.combine [ "stats-merge: PASS (4 cases)"; "sweep-kill: PASS (4 cases)" ]
       c.Client.results)

(* --------------------------- worker hygiene --------------------------- *)

(* A warm worker is forked while the server holds its listener, client
   sockets and the other workers' pipes; it must keep none of them. *)

let rec connect_retrying ~socket tries =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception Unix.Unix_error _ when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.02;
      connect_retrying ~socket (tries - 1)

(* Frames from [fd] until EOF, or [Error] if none came within the
   socket's receive timeout. *)
let read_to_eof fd =
  let dec = Harness.Wire.decoder ~tags:"ARXEH" () in
  let buf = Bytes.create 4096 in
  let rec go tags =
    match Harness.Wire.decode dec with
    | Ok (Some { Harness.Wire.tag; _ }) -> go (tag :: tags)
    | Error e -> Error (Harness.Wire.error_to_string e)
    | Ok None -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> Ok (List.rev tags)
        | n ->
            Harness.Wire.feed dec buf 0 n;
            go tags
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Error "no EOF within 3 s")
  in
  go []

(* The job on this connection forks the worker while the connection is
   open; the protocol-error close that follows must reach the client. *)
let test_protocol_close_reaches_client () =
  with_server ~config:(fast_config 1) @@ fun ~socket ~pid:_ ->
  let fd = connect_retrying ~socket 250 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 3.;
  let dec = Harness.Wire.decoder ~tags:"ARXEH" () in
  let buf = Bytes.create 4096 in
  Harness.Wire.write_all fd (Harness.Wire.encode ~tag:'S' "rev\t\nwarm");
  let rec result () =
    match Harness.Wire.decode dec with
    | Ok (Some { Harness.Wire.tag = 'R'; payload }) -> payload
    | Ok (Some _) -> result ()
    | Error e -> Alcotest.fail (Harness.Wire.error_to_string e)
    | Ok None -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> Alcotest.fail "EOF before the result"
        | n ->
            Harness.Wire.feed dec buf 0 n;
            result ())
  in
  check_bool "the job ran" true (ends_with ~suffix:"\tmraw" (result ()));
  Harness.Wire.write_all fd (Harness.Wire.encode ~tag:'Z' "");
  match read_to_eof fd with
  | Ok tags -> check_bool "'E', then EOF" true (tags = [ 'E' ])
  | Error reason -> Alcotest.fail reason

(* While the drain waits for a job on the warm worker, a new connect is
   refused. *)
let test_drain_refuses_connections () =
  let socket = temp_path ".sock" in
  let pid = fork_server ~config:(fast_config 1) ~socket () in
  Fun.protect
    ~finally:(fun () ->
      stop_server pid;
      try Sys.remove socket with Sys_error _ -> ())
  @@ fun () ->
  ignore (campaign ~socket [ ("rev", "warm") ]);
  raw_submit_all ~socket [ ("nap", "1.5") ];
  (* The ack can leave before the job starts, and a drain keeps a job
     that has not started in the queue: signal once it runs. *)
  let running () =
    match Client.health ~socket () with
    | Ok json ->
        Obs.Json.member "running" (Obs.Json.of_string json)
        |> Option.map Obs.Json.to_int_opt = Some (Some 1)
    | Error _ -> false
  in
  let until = Unix.gettimeofday () +. 1. in
  while (not (running ())) && Unix.gettimeofday () < until do
    Unix.sleepf 0.005
  done;
  Unix.kill pid Sys.sigterm;
  let give_up = Unix.gettimeofday () +. 1. in
  let rec refused () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () ->
        Unix.close fd;
        Unix.gettimeofday () < give_up && (Unix.sleepf 0.02; refused ())
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
        Unix.close fd;
        true
  in
  check_bool "connect refused during the drain" true (refused ())

(* The parent pid of a live process; [None] once it is gone or a
   zombie. *)
let parent_of pid =
  match In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
  | exception Sys_error _ -> None
  | stat -> (
      (* "pid (comm) state ppid ...": comm may hold spaces *)
      let from = String.rindex stat ')' + 2 in
      match String.split_on_char ' ' (String.sub stat from (String.length stat - from)) with
      | state :: ppid :: _ when state <> "Z" -> int_of_string_opt ppid
      | _ -> None)

let children_of pid =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map int_of_string_opt
  |> List.filter (fun p -> parent_of p = Some pid)

let test_sigkill_leaves_no_worker () =
  let socket = temp_path ".sock" in
  let pid = fork_server ~config:(fast_config 2) ~socket () in
  let workers =
    Fun.protect
      ~finally:(fun () ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        try Sys.remove socket with Sys_error _ -> ())
      (fun () ->
        ignore (campaign ~socket (List.init 6 (fun i -> ("slow", string_of_int i))));
        children_of pid)
  in
  check_int "two warm workers" 2 (List.length workers);
  Unix.sleepf 2.;
  check_bool "no worker alive 2 s after the kill" true
    (List.for_all (fun w -> parent_of w = None) workers)

(* ------------------------------ chaos -------------------------------- *)

(* The acceptance gate: under every injected fault, child kills
   included, the campaign still converges and its bytes equal the
   serverless baseline. *)
let chaos_scenario ~seed () =
  let config = { (fast_config 2) with Server.chaos = Some (Server.default_chaos ~seed) } in
  let specs =
    List.init 10 (fun i ->
        if i mod 3 = 0 then ("fail", Printf.sprintf "chaos-%d" i)
        else ("rev", Printf.sprintf "chaos-%d" i))
  in
  let baseline = List.map expected specs in
  with_server ~config @@ fun ~socket ~pid:_ ->
  let c = campaign ~window:8 ~socket specs in
  List.iteri
    (fun i (want, got) ->
      check_string (Printf.sprintf "chaos seed=%d result %d" seed i) want got)
    (List.combine baseline c.Client.results)

let test_chaos_seed_7 = chaos_scenario ~seed:7
let test_chaos_seed_23 = chaos_scenario ~seed:23

let () =
  Alcotest.run "server"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "mixed campaign" `Quick test_basic_roundtrip;
          Alcotest.test_case "jobs/isolation invariance" `Quick
            test_results_jobs_isolation_invariant;
          Alcotest.test_case "duplicate specs dedup" `Quick
            test_dedup_duplicate_specs;
          Alcotest.test_case "health" `Quick test_health;
          Alcotest.test_case "unreachable one-shots are typed" `Quick
            test_health_unreachable_is_typed;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "bounded queue rejects, campaign recovers" `Quick
            test_bounded_queue_rejects_and_recovers;
        ] );
      ( "drain-recovery",
        [
          Alcotest.test_case "proc jobs=1" `Quick (drain_recovery_scenario ~jobs:1);
          Alcotest.test_case "proc jobs=4" `Quick (drain_recovery_scenario ~jobs:4);
          Alcotest.test_case "journal replays cached results" `Quick
            test_journal_replay_serves_cached;
          Alcotest.test_case "SIGKILL + resume proc jobs=1" `Quick
            (sigkill_resume_scenario ~jobs:1);
          Alcotest.test_case "SIGKILL + resume proc jobs=4" `Quick
            (sigkill_resume_scenario ~jobs:4);
          Alcotest.test_case "deadline ms journaled exactly" `Quick test_deadline_ms_exact;
        ] );
      ( "clients",
        [
          Alcotest.test_case "unread 4 MB reply stalls nobody, proc" `Quick
            test_slow_reader;
          Alcotest.test_case "malformed kind refused before connecting" `Quick
            test_malformed_kind_refused;
          Alcotest.test_case "error reply fails, never loops" `Quick test_error_reply_fails;
          Alcotest.test_case "stats request is a protocol error" `Quick
            test_stats_request_refused;
          Alcotest.test_case "dead socket gives up after max_attempts" `Quick
            test_dead_socket_bound;
        ] );
      ( "containment",
        [
          Alcotest.test_case "default deadline quarantines" `Quick
            test_default_deadline_quarantines;
          Alcotest.test_case "crash retries then quarantines" `Quick
            test_crash_retries_then_quarantines;
          Alcotest.test_case "submit deadline beats the default" `Quick
            test_submit_deadline_wins;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "serial fuzz targets answer as fuzz.exe" `Quick test_serial_fuzz_jobs;
          Alcotest.test_case "a worker that spawned a domain retires" `Quick
            test_fork_after_domain;
        ] );
      ( "workers",
        [
          Alcotest.test_case "protocol-error close reaches the client" `Quick
            test_protocol_close_reaches_client;
          Alcotest.test_case "drain refuses new connections" `Quick
            test_drain_refuses_connections;
          Alcotest.test_case "SIGKILLed server leaves no worker" `Quick
            test_sigkill_leaves_no_worker;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "soak seed=7" `Quick test_chaos_seed_7;
          Alcotest.test_case "soak seed=23" `Quick test_chaos_seed_23;
        ] );
    ]
