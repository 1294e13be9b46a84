(* Self-tests for the property-based testing engine: stream
   determinism, shrinking minimality, replay tokens, and the fuzz
   driver's invariance across processes. *)

module Rng = Proptest.Rng
module Gen = Proptest.Gen
module Runner = Proptest.Runner

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------ rng ------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.of_seed_case ~seed:7 ~case:3 in
  let b = Rng.of_seed_case ~seed:7 ~case:3 in
  for i = 0 to 9 do
    check_int (Printf.sprintf "draw %d" i) (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done

let test_rng_cases_independent () =
  (* Distinct cases of one seed give distinct streams (SplitMix64 mixes
     the case into both state and gamma). *)
  let draws case =
    let r = Rng.of_seed_case ~seed:7 ~case in
    List.init 4 (fun _ -> Rng.bits64 r)
  in
  check_bool "case 0 <> case 1" true (draws 0 <> draws 1);
  check_bool "case 1 <> case 2" true (draws 1 <> draws 2)

let test_rng_split_independent () =
  let r = Rng.of_seed 42 in
  let s = Rng.split r in
  let from_s = List.init 4 (fun _ -> Rng.bits64 s) in
  let from_r = List.init 4 (fun _ -> Rng.bits64 r) in
  check_bool "split stream differs from parent" true (from_s <> from_r);
  (* A copy replays the exact stream. *)
  let t = Rng.of_seed 42 in
  let _ = Rng.split t in
  let from_t = List.init 4 (fun _ -> Rng.bits64 t) in
  check_bool "same construction replays" true (from_r = from_t)

let test_rng_bounds () =
  let r = Rng.of_seed 11 in
  for _ = 1 to 1000 do
    let x = Rng.int r 7 in
    check_bool "int in [0,7)" true (x >= 0 && x < 7);
    let y = Rng.int_in r (-3) 3 in
    check_bool "int_in in [-3,3]" true (y >= -3 && y <= 3);
    let f = Rng.float r in
    check_bool "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

(* ------------------------------ gen ------------------------------ *)

let test_generate_in_range () =
  let r = Rng.of_seed 5 in
  for _ = 1 to 200 do
    let x = Gen.generate (Gen.int_range 10 20) ~size:30 r in
    check_bool "in range" true (x >= 10 && x <= 20)
  done

let test_shrink_candidates_stay_in_range () =
  let rec all_in_range depth tree =
    let x = Gen.root tree in
    x >= 10 && x <= 20
    && (depth = 0
       || Seq.for_all (all_in_range (depth - 1)) (Gen.children tree))
  in
  let r = Rng.of_seed 5 in
  for _ = 1 to 50 do
    let tree = (Gen.int_range 10 20) ~size:30 r in
    check_bool "tree in range" true (all_in_range 3 tree)
  done

let test_permutation_children_are_permutations () =
  let input = [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  let same_multiset l = List.sort compare l = input in
  let r = Rng.of_seed 9 in
  for _ = 1 to 50 do
    let tree = (Gen.permutation input) ~size:30 r in
    check_bool "root is a permutation" true (same_multiset (Gen.root tree));
    Seq.iter
      (fun c ->
        check_bool "child is a permutation" true (same_multiset (Gen.root c)))
      (Gen.children tree)
  done

let test_such_that () =
  let even = Gen.such_that (fun x -> x mod 2 = 0) (Gen.int_range 0 100) in
  let r = Rng.of_seed 3 in
  for _ = 1 to 100 do
    check_int "even" 0 (Gen.generate even ~size:30 r mod 2)
  done

(* ----------------------------- runner ---------------------------- *)

let config ?(cases = 200) () =
  { Runner.default_config with Runner.seed = 0x7E57; cases }

let test_int_shrinks_to_boundary () =
  match
    Runner.check ~config:(config ()) ~name:"x < 15" ~print:string_of_int
      (Gen.int_range 0 100)
      (fun x -> x < 15)
  with
  | Runner.Passed _ -> Alcotest.fail "expected a failure"
  | Runner.Failed c -> check_string "minimal counterexample" "15" c.Runner.printed

let test_list_sum_shrinks_to_100 () =
  let print l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]" in
  match
    Runner.check ~config:(config ()) ~name:"sum < 100" ~print
      (Gen.list ~max_len:20 (Gen.int_range 0 1000))
      (fun l -> List.fold_left ( + ) 0 l < 100)
  with
  | Runner.Passed _ -> Alcotest.fail "expected a failure"
  | Runner.Failed c ->
      (* Minimal: a single element exactly at the boundary. *)
      check_string "minimal counterexample" "[100]" c.Runner.printed

let test_bind_shrink_keeps_invariants () =
  (* A graph generated by bind (node count, then edges over it) must
     stay well-formed through every shrink step: the minimal graph with
     an edge is one edge. *)
  let tree = Proptest.Domain_gen.small_graph ~size:50 (Rng.of_seed 0x60D) in
  let has_edges g = Grid_graph.Graph.m g > 0 in
  (match Runner.eval (fun g -> not (has_edges g)) (Gen.root tree) with
  | None ->
      (* This seed generates a graph with edges; if not, the test setup
         is wrong, not the engine. *)
      Alcotest.fail "seed 0x60D should generate a graph with edges"
  | Some _ -> ());
  let minimal, _steps, _ =
    Runner.shrink ~max_shrinks:1000
      (fun g -> not (has_edges g))
      tree ~message:"has edges"
  in
  check_int "minimal failing graph has one edge" 1 (Grid_graph.Graph.m minimal)

let test_passed_runs_all_cases () =
  match
    Runner.check ~config:(config ~cases:77 ()) ~name:"true" ~print:string_of_int
      (Gen.int_range 0 10)
      (fun _ -> true)
  with
  | Runner.Passed { cases } -> check_int "all cases" 77 cases
  | Runner.Failed _ -> Alcotest.fail "vacuous property failed"

let test_exception_is_a_failure () =
  match
    Runner.check ~config:(config ()) ~name:"no raise" ~print:string_of_int
      (Gen.int_range 0 100)
      (fun x -> if x > 10 then failwith "boom" else true)
  with
  | Runner.Passed _ -> Alcotest.fail "expected a failure"
  | Runner.Failed c ->
      check_string "shrunk to the raise boundary" "11" c.Runner.printed;
      check_bool "message mentions the exception" true
        (String.length c.Runner.message >= 6
        && String.sub c.Runner.message 0 6 = "raised")

let test_replay_token_roundtrip () =
  let token = Runner.replay_token ~name:"thm1-game" ~seed:42 ~case:17 ~size:23 in
  check_string "token" "thm1-game:42:17:23" token;
  (match Runner.parse_replay_token token with
  | Some ("thm1-game", 42, 17, 23) -> ()
  | _ -> Alcotest.fail "round trip failed");
  (* Names may contain colons; the parse splits from the right. *)
  (match Runner.parse_replay_token "a:b:1:2:3" with
  | Some ("a:b", 1, 2, 3) -> ()
  | _ -> Alcotest.fail "colon name failed");
  check_bool "malformed" true (Runner.parse_replay_token "nope" = None);
  check_bool "non-numeric" true (Runner.parse_replay_token "a:b:c:d" = None)

let test_replayed_case_reproduces () =
  (* The (seed, case, size) triple of a failure re-runs to the same
     failure — the contract behind PROPTEST_REPLAY and fuzz --replay. *)
  let gen = Gen.list ~max_len:20 (Gen.int_range 0 1000) in
  let prop l = List.fold_left ( + ) 0 l < 100 in
  match Runner.check ~config:(config ()) ~name:"sum" ~print:(fun _ -> "") gen prop with
  | Runner.Passed _ -> Alcotest.fail "expected a failure"
  | Runner.Failed c -> (
      match
        Runner.run_case gen prop ~seed:c.Runner.seed ~case:c.Runner.case
          ~size:c.Runner.size
      with
      | Runner.Case_fail _ -> ()
      | Runner.Case_pass -> Alcotest.fail "replayed case did not fail")

let test_size_ramp () =
  let c = { (config ~cases:10 ()) with Runner.size_min = 5; size_max = 50 } in
  check_int "first case" 5 (Runner.size_for c 0);
  check_int "last case" 50 (Runner.size_for c 9);
  check_bool "monotone" true
    (List.for_all
       (fun i -> Runner.size_for c i <= Runner.size_for c (i + 1))
       (List.init 9 (fun i -> i)))

(* --------------------------- fuzz driver -------------------------- *)

let test_fuzz_registry () =
  check_bool "demo-bug not in defaults" true
    (not (List.mem "demo-bug" Proptest.Fuzz_targets.default_names));
  check_bool "thm1-game registered" true
    (Proptest.Fuzz_targets.find "thm1-game" <> None);
  check_bool "unknown is None" true (Proptest.Fuzz_targets.find "nope" = None)

let test_fuzz_jobs_invariant () =
  (* The full report of a target — pass/fail, counterexample, replay
     token — is identical in this process and on a supervised worker,
     three targets on three workers, as fuzz.exe runs them. *)
  let targets =
    Array.map
      (fun name -> Option.get (Proptest.Fuzz_targets.find name))
      [| "proper-vs-brute"; "bvalue-cancel"; "wire-codec" |]
  in
  let cfg = { Runner.default_config with Runner.seed = 77; cases = 40 } in
  let describe t =
    match (Proptest.Fuzz_run.run_target ~config:cfg t).Proptest.Fuzz_run.status with
    | Proptest.Fuzz_run.Passed { cases } -> Printf.sprintf "pass %d" cases
    | Proptest.Fuzz_run.Failed c -> Format.asprintf "%a" Runner.pp_counterexample c
    | Proptest.Fuzz_run.Skipped r -> "skip " ^ r
  in
  let on_workers = Array.make (Array.length targets) "" in
  Harness.Supervisor.run ~jobs:3 ~tasks:(Array.length targets)
    ~key:(fun i -> targets.(i).Proptest.Fuzz_targets.name)
    ~work:(fun i -> describe targets.(i))
    ~consume:(fun i o -> on_workers.(i) <- Harness.Supervisor.outcome_to_string o)
    ();
  Array.iteri
    (fun i t -> check_string t.Proptest.Fuzz_targets.name (describe t) on_workers.(i))
    targets

let test_fuzz_replay_demo_bug () =
  (* Fuzz_run.replay bypasses the availability gate, so the demo target
     replays without FUZZ_DEMO_BUG set. *)
  match Proptest.Fuzz_run.replay "demo-bug:7:0:5" with
  | Error e -> Alcotest.fail e
  | Ok r -> (
      match r.Proptest.Fuzz_run.status with
      | Proptest.Fuzz_run.Failed c ->
          check_string "shrinks to the boundary" "[100]" c.Runner.printed
      | _ -> Alcotest.fail "expected the demo bug to fail")

let () =
  Alcotest.run "proptest"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "cases independent" `Quick test_rng_cases_independent;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
        ] );
      ( "gen",
        [
          Alcotest.test_case "generate in range" `Quick test_generate_in_range;
          Alcotest.test_case "shrinks stay in range" `Quick
            test_shrink_candidates_stay_in_range;
          Alcotest.test_case "permutation children" `Quick
            test_permutation_children_are_permutations;
          Alcotest.test_case "such_that" `Quick test_such_that;
        ] );
      ( "runner",
        [
          Alcotest.test_case "int shrinks to boundary" `Quick
            test_int_shrinks_to_boundary;
          Alcotest.test_case "list sum shrinks to [100]" `Quick
            test_list_sum_shrinks_to_100;
          Alcotest.test_case "bind shrink keeps invariants" `Quick
            test_bind_shrink_keeps_invariants;
          Alcotest.test_case "passed runs all cases" `Quick test_passed_runs_all_cases;
          Alcotest.test_case "exception is a failure" `Quick
            test_exception_is_a_failure;
          Alcotest.test_case "replay token roundtrip" `Quick
            test_replay_token_roundtrip;
          Alcotest.test_case "replayed case reproduces" `Quick
            test_replayed_case_reproduces;
          Alcotest.test_case "size ramp" `Quick test_size_ramp;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "registry" `Quick test_fuzz_registry;
          Alcotest.test_case "jobs invariant" `Quick test_fuzz_jobs_invariant;
          Alcotest.test_case "replay demo-bug" `Quick test_fuzz_replay_demo_bug;
        ] );
    ]
