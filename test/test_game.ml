open Online_local

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_registry () =
  check_int "six games" 6 (List.length Game.games);
  check_bool "find known" true (Game.find "thm1-grid" <> None);
  check_bool "find upper" true (Game.find "upper-grid-oracle" <> None);
  check_bool "find unknown" true (Game.find "nonsense" = None)

let test_thm1_game_defeats_greedy () =
  let v = Game.thm1.Game.play ~n:3200 (Portfolio.greedy ()) in
  check_bool "defeated" true (v.Verdict.outcome = Verdict.Defeated);
  check_bool "guaranteed at T=1" true v.Verdict.guaranteed;
  check_int "size recorded" 3200 v.Verdict.n

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_thm2_game_rounds_to_odd () =
  let v = Game.thm2_torus.Game.play ~n:20 (Portfolio.greedy ()) in
  check_int "odd side" 21 v.Verdict.n;
  check_bool "rounding visible in detail" true
    (contains ~needle:"side rounded 20 -> 21" v.Verdict.detail);
  check_bool "defeated" true (v.Verdict.outcome = Verdict.Defeated)

let test_thm2_game_odd_input_not_rounded () =
  let v = Game.thm2_torus.Game.play ~n:21 (Portfolio.greedy ()) in
  check_int "side kept" 21 v.Verdict.n;
  check_bool "no rounding note" false (contains ~needle:"rounded" v.Verdict.detail)

let test_thm2_cylinder_game () =
  let v = Game.thm2_cylinder.Game.play ~n:13 (Portfolio.greedy ()) in
  check_bool "defeated" true (v.Verdict.outcome = Verdict.Defeated);
  check_bool "guaranteed" true v.Verdict.guaranteed

let test_thm3_game () =
  let v = Game.thm3.Game.play ~n:9 (Portfolio.gadget_rows ()) in
  check_bool "defeated" true (v.Verdict.outcome = Verdict.Defeated);
  check_bool "guaranteed" true v.Verdict.guaranteed

let test_every_lower_game_beats_greedy () =
  List.iter
    (fun g ->
      let v = g.Game.play ~n:25 (Portfolio.greedy ()) in
      check_bool (g.Game.name ^ " beats greedy") true (v.Verdict.outcome = Verdict.Defeated))
    [ Game.thm1; Game.thm2_torus; Game.thm2_cylinder; Game.thm3 ]

let test_upper_games_survivable () =
  let v = Game.upper_grid.Game.play ~n:8 (Portfolio.ael ~t:4 ()) in
  check_bool "ael survives the oracle-free grid" true (v.Verdict.outcome = Verdict.Survived);
  let v = Game.upper_grid_oracle.Game.play ~n:8 (Portfolio.kp1 ~k:2 ~t:8 ()) in
  check_bool "kp1 survives with the oracle" true (v.Verdict.outcome = Verdict.Survived)

let test_portfolio_total () =
  (* One faulty entry degrades its own verdicts only. *)
  let entries =
    [
      ("greedy", Portfolio.greedy ());
      ("saboteur", Harness.Faults.raise_at ~step:1 (Portfolio.greedy ()));
    ]
  in
  let results =
    List.concat_map
      (fun (label, algo) ->
        List.map (fun g -> (label, g.Game.play ~n:9 algo)) [ Game.thm3; Game.upper_grid ])
      entries
  in
  check_int "all pairings produced verdicts" 4 (List.length results);
  List.iter
    (fun (label, v) ->
      match (label, v.Verdict.outcome) with
      | "saboteur", Verdict.Algorithm_fault _ -> ()
      | "saboteur", o ->
          Alcotest.failf "saboteur should fault, got %s" (Verdict.label o)
      | _, (Verdict.Algorithm_fault _ | Verdict.Adversary_fault _) ->
          Alcotest.fail "healthy entry faulted"
      | _ -> ())
    results

let test_verdict_renders () =
  let v = Game.thm3.Game.play ~n:5 (Portfolio.greedy ()) in
  let s = Format.asprintf "%a" Verdict.pp v in
  check_bool "mentions adversary" true (contains ~needle:"thm3" s)

(* An algorithm fault names its cause, and that a backtrace was
   recorded, once: the guard's exception reaches the executor's record
   as the algorithm's own exception text.  The node and step are where
   the probe failed, as sweep_thm2 --side 41 prints them: a stopped
   probe is not replayed against the faulted guard. *)
let test_algorithm_fault_line_pinned () =
  let v = Game.thm2_torus.Game.play ~n:41 (Portfolio.ael ~t:1 ()) in
  Alcotest.(check string)
    "verdict"
    "thm2-torus vs ael-3coloring-bipartite (n=41): ALGORITHM-FAULT (raised)\n\
     result=DEFEATED (algorithm raised on node 79: Invalid_argument(\"kp1: inconsistent \
     bipartite contacts (host not bipartite?)\") [backtrace recorded]) s_east=0 s_west=0 \
     reflected=false presented=39 preconditions=true"
    (Format.asprintf "%a" Verdict.pp v)

(* The game_verdict trace event carries the verdict's own guaranteed
   flag, which thm2 and thm3 take from their run's preconditions. *)
let test_traced_flag_agrees () =
  List.iter
    (fun (game, n, algorithm, want) ->
      let traced = ref [] in
      Obs.Trace.set_hook
        (Some
           (function
           | Obs.Trace.Game_verdict { guaranteed; _ } -> traced := guaranteed :: !traced
           | _ -> ()));
      let v =
        Fun.protect
          ~finally:(fun () -> Obs.Trace.set_hook None)
          (fun () -> game.Game.play ~n algorithm)
      in
      let what = Printf.sprintf "%s n=%d" game.Game.name n in
      check_bool (what ^ " verdict") want v.Verdict.guaranteed;
      Alcotest.(check (list bool)) (what ^ " trace") [ want ] !traced)
    [
      (Game.thm2_torus, 21, Portfolio.greedy (), true);
      (Game.thm2_cylinder, 7, Portfolio.greedy (), false);
      (Game.thm3, 9, Portfolio.gadget_rows (), true);
      (Game.thm1, 3200, Portfolio.greedy (), true);
    ]

let () =
  Alcotest.run "game"
    [
      ( "registry",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "thm1 vs greedy" `Quick test_thm1_game_defeats_greedy;
          Alcotest.test_case "thm2 odd rounding" `Quick test_thm2_game_rounds_to_odd;
          Alcotest.test_case "thm2 odd input kept" `Quick
            test_thm2_game_odd_input_not_rounded;
          Alcotest.test_case "thm2 cylinder" `Quick test_thm2_cylinder_game;
          Alcotest.test_case "thm3" `Quick test_thm3_game;
          Alcotest.test_case "lower games beat greedy" `Slow
            test_every_lower_game_beats_greedy;
          Alcotest.test_case "upper games survivable" `Quick test_upper_games_survivable;
          Alcotest.test_case "portfolio total" `Quick test_portfolio_total;
          Alcotest.test_case "verdict renders" `Quick test_verdict_renders;
          Alcotest.test_case "algorithm fault line pinned" `Quick
            test_algorithm_fault_line_pinned;
          Alcotest.test_case "traced flag agrees" `Quick test_traced_flag_agrees;
        ] );
    ]
