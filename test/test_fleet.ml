(* Harness.Fleet: sharded multi-server campaigns.

   Every test forks real serve.exe-shaped servers (Harness.Server.run
   in child processes) and drives them with the real fleet router over
   Unix-domain sockets.  The anchor assertion is the dispatch
   byte-identity contract: fleet campaign results equal a local map of
   the handler over the same specs — at every shard count, jobs level,
   isolation mode, chaos seed, and kill/drain history. *)

module Server = Harness.Server
module Client = Harness.Client
module Fleet = Harness.Fleet
module Backoff = Harness.Backoff

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let fast_backoff = { Backoff.base = 0.002; max = 0.02; seed = 0x5EED }

(* Same deterministic handler as test_server: rev/upper/fail/slow. *)
let handler ~kind ~payload =
  match kind with
  | "rev" ->
      String.init (String.length payload) (fun i ->
          payload.[String.length payload - 1 - i])
  | "upper" -> String.uppercase_ascii payload
  | "fail" -> failwith ("no can do: " ^ payload)
  | "slow" ->
      Unix.sleepf 0.03;
      "slept for " ^ payload
  | "crawl" ->
      Unix.sleepf 0.15;
      "crawled " ^ payload
  | other -> failwith ("unknown kind: " ^ other)

let expected (kind, payload) =
  match handler ~kind ~payload with
  | r -> r
  | exception Failure msg -> "ERROR: Failure(\"" ^ msg ^ "\")"

let temp_path suffix =
  let path = Filename.temp_file "fleet_test" suffix in
  (try Sys.remove path with Sys_error _ -> ());
  path

let fork_server ?journal ?resume ~config ~socket () =
  match Unix.fork () with
  | 0 ->
      (try Server.run ~config ?journal ?resume ~socket ~handler () with _ -> ());
      Unix._exit 0
  | pid -> pid

let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

let fast_supervisor =
  { Harness.Supervisor.default_config with backoff = fast_backoff; kill_grace = 0.1 }

let fast_config jobs isolation =
  { Server.default_config with Server.jobs; isolation; supervisor = fast_supervisor }

(* Wait until a forked server's socket answers a health ping — the
   fleet types initial unreachability into the verdict, so tests that
   assert a FULL verdict must not race the bind. *)
let wait_ready socket =
  let deadline = Unix.gettimeofday () +. 5. in
  let rec go () =
    match Client.health ~recv_timeout:1. ~socket () with
    | Ok _ -> ()
    | Error (`Unreachable _) ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "server on %s never became ready" socket;
        Unix.sleepf 0.01;
        go ()
  in
  go ()

(* Fork [n] servers; call [f sockets pids]; SIGTERM-and-reap whatever
   is still alive on the way out. *)
let with_fleet ~n ~config f =
  let sockets = List.init n (fun _ -> temp_path ".sock") in
  let pids = List.map (fun s -> fork_server ~config ~socket:s ()) sockets in
  List.iter wait_ready sockets;
  Fun.protect
    ~finally:(fun () ->
      List.iter stop_server pids;
      List.iter (fun s -> try Sys.remove s with Sys_error _ -> ()) sockets)
    (fun () -> f sockets pids)

let campaign ?(window = 16) ?max_attempts ?(shard_seed = 0)
    ?(probe_interval = 0.05) ~endpoints specs =
  Fleet.run_campaign ~backoff:fast_backoff ~window ?max_attempts ~shard_seed
    ~probe_interval ~recv_timeout:10. ~endpoints specs

let mixed_specs =
  [
    ("rev", "stressed");
    ("upper", "two\nlines");
    ("fail", "boom");
    ("rev", "");
    ("upper", "last one");
    ("rev", "fleet");
    ("fail", "again");
    ("upper", "mixed");
  ]

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  n = 0
  || (m >= n
     && (let found = ref false in
         for i = 0 to m - n do
           if (not !found) && String.sub s i n = sub then found := true
         done;
         !found))

let check_results label specs (c : Fleet.campaign) =
  check_int (label ^ ": all results in") (List.length specs)
    (List.length c.Fleet.results);
  List.iteri
    (fun i (spec, got) ->
      check_string (Printf.sprintf "%s: result %d" label i) (expected spec) got)
    (List.combine specs c.Fleet.results)

(* ----------------------- byte-identity matrix ----------------------- *)

(* Calm fleet at every shard count x jobs level: byte-identical to the
   serverless baseline, FULL verdict, no failovers, no duplicates. *)
let test_identity_matrix () =
  List.iter
    (fun shards ->
      List.iter
        (fun jobs ->
          let label = Printf.sprintf "shards=%d jobs=%d" shards jobs in
          with_fleet ~n:shards ~config:(fast_config jobs `In_domain)
          @@ fun sockets _pids ->
          let c = campaign ~endpoints:sockets mixed_specs in
          check_results label mixed_specs c;
          check_bool (label ^ ": FULL verdict") true (c.Fleet.verdict = `Full);
          check_int (label ^ ": no failovers") 0 c.Fleet.failovers;
          check_int (label ^ ": no duplicates") 0 c.Fleet.duplicates)
        [ 1; 4 ])
    [ 1; 2; 3 ]

(* Chaos servers (dropped conns, partial/truncated frames, child
   SIGKILLs) at every shard count: the campaign still converges to the
   same bytes.  Process isolation so kill_child is exercised. *)
let test_identity_under_chaos () =
  List.iter
    (fun shards ->
      List.iter
        (fun seed ->
          let config =
            {
              (fast_config 2 `Process) with
              Server.chaos = Some (Server.default_chaos ~seed);
            }
          in
          let label = Printf.sprintf "chaos shards=%d seed=%d" shards seed in
          with_fleet ~n:shards ~config @@ fun sockets _pids ->
          let c = campaign ~window:8 ~endpoints:sockets mixed_specs in
          check_results label mixed_specs c)
        [ 7; 23 ])
    [ 1; 2; 3 ]

(* Single-endpoint fleet and single-server client: same bytes. *)
let test_single_endpoint_matches_client () =
  with_fleet ~n:1 ~config:(fast_config 2 `In_domain) @@ fun sockets _pids ->
  let f = campaign ~endpoints:sockets mixed_specs in
  let c =
    Client.run_campaign ~backoff:fast_backoff
      ~socket:(List.hd sockets) mixed_specs
  in
  List.iter2
    (fun a b -> check_string "fleet equals client" a b)
    c.Client.results f.Fleet.results

(* ------------------------------ failover ----------------------------- *)

(* SIGKILL one of three servers mid-campaign: its jobs fail over, the
   campaign completes with the same bytes, and the verdict says what
   happened instead of pretending it did not. *)
let test_sigkill_failover () =
  with_fleet ~n:3 ~config:(fast_config 1 `In_domain) @@ fun sockets pids ->
  let specs = List.init 12 (fun i -> ("slow", Printf.sprintf "kill-%d" i)) in
  let victim = List.nth pids 1 in
  (* the killer: a child that waits for the campaign to be mid-flight *)
  (match Unix.fork () with
  | 0 ->
      Unix.sleepf 0.08;
      (try Unix.kill victim Sys.sigkill with Unix.Unix_error _ -> ());
      Unix._exit 0
  | killer ->
      let c = campaign ~window:12 ~endpoints:sockets specs in
      ignore (Unix.waitpid [] killer);
      check_results "sigkill" specs c;
      check_bool "sigkill: degraded verdict" true
        (match c.Fleet.verdict with `Degraded _ -> true | `Full -> false);
      check_bool "sigkill: failovers counted" true (c.Fleet.failovers >= 1))

(* SIGTERM-drain one of two servers mid-campaign with slow jobs: the
   drained server still answers its in-flight job on the open
   connection while the fleet has already resubmitted it elsewhere —
   the redundant delivery is dropped and counted.  Exactly-once is the
   byte-identity assertion; [duplicates] makes the dedup visible. *)
let test_drain_duplicates_deduped () =
  with_fleet ~n:2 ~config:(fast_config 1 `In_domain) @@ fun sockets pids ->
  let specs = List.init 10 (fun i -> ("crawl", Printf.sprintf "drain-%d" i)) in
  let victim = List.hd pids in
  (match Unix.fork () with
  | 0 ->
      Unix.sleepf 0.05;
      (try Unix.kill victim Sys.sigterm with Unix.Unix_error _ -> ());
      Unix._exit 0
  | killer ->
      let c = campaign ~window:10 ~probe_interval:0.02 ~endpoints:sockets specs in
      ignore (Unix.waitpid [] killer);
      check_results "drain" specs c;
      check_bool "drain: degraded verdict" true
        (match c.Fleet.verdict with `Degraded _ -> true | `Full -> false);
      (* every result was delivered exactly once into [results]
         regardless of how many servers answered; any redundant answer
         must be in the counter, never in the output *)
      check_bool "drain: dedup counter consistent" true (c.Fleet.duplicates >= 0))

(* One endpoint never existed: the campaign degrades to the live
   server, names the dead one in the verdict, and loses nothing. *)
let test_dead_endpoint_degrades () =
  with_fleet ~n:1 ~config:(fast_config 2 `In_domain) @@ fun sockets _pids ->
  let dead = temp_path ".sock" in
  let endpoints = [ dead; List.hd sockets ] in
  let c = campaign ~max_attempts:50 ~endpoints mixed_specs in
  check_results "dead endpoint" mixed_specs c;
  match c.Fleet.verdict with
  | `Full -> Alcotest.fail "expected a degraded verdict"
  | `Degraded reasons ->
      check_bool "dead endpoint named" true
        (List.exists (contains ~sub:dead) reasons)

(* The whole fleet dark: a typed Failure bound, not a hang. *)
let test_all_dead_fails () =
  let endpoints = [ temp_path ".sock"; temp_path ".sock" ] in
  match campaign ~max_attempts:3 ~endpoints [ ("rev", "x") ] with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      check_bool "names the fleet" true
        (String.length msg > 0)

(* ------------------------------ sharding ----------------------------- *)

let test_home_shard_deterministic () =
  let shard = Fleet.home_shard ~shard_seed:42 ~endpoints:3 in
  List.iter
    (fun (kind, payload) ->
      let a = shard ~kind ~payload in
      let b = shard ~kind ~payload in
      check_int (Printf.sprintf "stable shard for %s/%s" kind payload) a b;
      check_bool "in range" true (a >= 0 && a < 3))
    mixed_specs;
  (* the seed actually matters: over enough jobs, two seeds disagree
     somewhere (equal placement for 64 jobs has probability 3^-64) *)
  let jobs = List.init 64 (fun i -> Printf.sprintf "job-%d" i) in
  let place seed =
    List.map
      (fun p -> Fleet.home_shard ~shard_seed:seed ~endpoints:3 ~kind:"rev" ~payload:p)
      jobs
  in
  check_bool "seeds differ" true (place 1 <> place 2)

(* ------------------------------ validation --------------------------- *)

let test_invalid_args () =
  Alcotest.check_raises "empty endpoints"
    (Invalid_argument "Fleet: at least one endpoint required") (fun () ->
      ignore (Fleet.run_campaign ~endpoints:[] [ ("rev", "x") ]));
  Alcotest.check_raises "duplicate endpoints"
    (Invalid_argument "Fleet: duplicate endpoint /tmp/same.sock") (fun () ->
      ignore
        (Fleet.run_campaign
           ~endpoints:[ "/tmp/same.sock"; "/tmp/same.sock" ]
           [ ("rev", "x") ]));
  Alcotest.check_raises "bad endpoint count"
    (Invalid_argument "Fleet: endpoints must be >= 1") (fun () ->
      ignore (Fleet.home_shard ~shard_seed:0 ~endpoints:0 ~kind:"rev" ~payload:""))

let () =
  Alcotest.run "fleet"
    [
      ( "byte-identity",
        [
          Alcotest.test_case "shard x jobs matrix" `Quick test_identity_matrix;
          Alcotest.test_case "chaos matrix" `Quick test_identity_under_chaos;
          Alcotest.test_case "single endpoint equals client" `Quick
            test_single_endpoint_matches_client;
        ] );
      ( "failover",
        [
          Alcotest.test_case "SIGKILL mid-campaign" `Quick test_sigkill_failover;
          Alcotest.test_case "SIGTERM drain dedups duplicates" `Quick
            test_drain_duplicates_deduped;
          Alcotest.test_case "dead endpoint degrades" `Quick
            test_dead_endpoint_degrades;
          Alcotest.test_case "all endpoints dead fails typed" `Quick
            test_all_dead_fails;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "home shard deterministic" `Quick
            test_home_shard_deterministic;
        ] );
      ( "validation",
        [ Alcotest.test_case "invalid arguments" `Quick test_invalid_args ] );
    ]
