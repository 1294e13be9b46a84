(* Coverage for Online_local.Portfolio (the baseline algorithm registry)
   and Online_local.Measure (empirical locality and defeat-threshold
   search). *)

open Grid_graph
module Game = Online_local.Game
module Verdict = Online_local.Verdict
module Portfolio = Online_local.Portfolio
module Measure = Online_local.Measure

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let limits =
  {
    Harness.Guard.max_color_calls = Some 200_000;
    max_work = Some 2_000_000;
    deadline = Some 10.0;
  }

let test_baselines_named () =
  let b1 = Portfolio.grid_baselines () and b2 = Portfolio.grid_baselines () in
  check_int "same portfolio size" (List.length b1) (List.length b2);
  check_bool "has greedy" true (List.mem_assoc "greedy" b1);
  check_bool "has an ael entry" true (List.mem_assoc "ael-T1" b1);
  List.iter2
    (fun (l1, _) (l2, _) -> check_bool "same labels" true (String.equal l1 l2))
    b1 b2;
  (* Labels are unique — a table keyed by label would be ambiguous otherwise. *)
  let labels = List.map fst b1 in
  check_int "unique labels" (List.length labels)
    (List.length (List.sort_uniq compare labels))

let test_stripes3_survives_upper_grid () =
  (* stripes3 colors (row + col) mod 3 from hints: proper on the fixed
     simple grid of the upper-bound game. *)
  let v = Game.upper_grid.Game.play ~limits ~n:6 (Portfolio.stripes3 ()) in
  check_bool "survived" true (v.Verdict.outcome = Verdict.Survived)

let test_thm1_defeats_ael_t1 () =
  (* The E7 pinned baseline: Theorem 1 at side 30 defeats AEL at
     locality 1.  Side 30 only fits k = 2 < 4T + 5, so the theory
     guarantee flag stays off even though the attack lands. *)
  let v = Game.thm1.Game.play ~limits ~n:30 (Portfolio.ael ~t:1 ()) in
  check_bool "defeated" true (v.Verdict.outcome = Verdict.Defeated);
  check_bool "not guaranteed at side 30" false v.Verdict.guaranteed;
  (* The guarantee threshold itself: at T = 1 the attack is certified
     once the side fits k = 9 nested calls. *)
  let k = Online_local.Thm1_adversary.recommended_k ~n_side:4000 ~t:1 in
  check_bool "guaranteed at side 4000" true
    (Online_local.Thm1_adversary.guaranteed ~t:1 ~k)

let test_adversarial_orders_are_permutations () =
  let host = Graph.path_graph 16 in
  let orders = Measure.adversarial_orders ~host ~seeds:[ 1; 2 ] in
  check_int "3 structured + 2 seeded" 5 (List.length orders);
  let identity = List.init 16 (fun i -> i) in
  List.iter
    (fun order ->
      check_bool "permutation of the host" true
        (List.sort compare order = identity))
    orders

let test_min_locality_binary_search () =
  (* A synthetic family with a known threshold: proper parity coloring
     iff t >= 3, else constant color 0.  The search must return exactly
     3, and None when even t_max fails. *)
  let host = Graph.path_graph 8 in
  let make ~t =
    Models.Algorithm.stateless ~name:(Printf.sprintf "step-%d" t)
      ~locality:(fun ~n:_ -> t)
      (fun view ->
        if t >= 3 then view.Models.View.id view.Models.View.target mod 2 else 0)
  in
  let orders = Measure.adversarial_orders ~host ~seeds:[ 0 ] in
  check_bool "threshold found" true
    (Measure.min_locality_for_success ~host ~palette:2 ~orders ~make ~t_max:6 ()
    = Some 3);
  check_bool "below threshold" true
    (Measure.min_locality_for_success ~host ~palette:2 ~orders ~make ~t_max:2 ()
    = None)

let test_min_locality_kp1_on_grid () =
  (* The Theorem 4 algorithm with the bipartition oracle finds some
     finite T* on a small grid. *)
  let grid = Topology.Grid2d.create Topology.Grid2d.Simple ~rows:4 ~cols:4 in
  let host = Topology.Grid2d.graph grid in
  let orders = Measure.adversarial_orders ~host ~seeds:[ 0 ] in
  match
    Measure.min_locality_for_success ~host ~palette:3 ~orders
      ~make:(fun ~t -> Online_local.Portfolio.kp1 ~k:2 ~t ())
      ~oracle:(Online_local.Oracles.grid_bipartition grid)
      ~t_max:16 ()
  with
  | Some t -> check_bool "T* within bound" true (t >= 1 && t <= 16)
  | None -> Alcotest.fail "kp1 should succeed at t_max = 16"

let test_min_defeating_b () =
  (* The Theorem 1 adversary defeats greedy at some b-target within the
     side's fitting range. *)
  match
    Measure.min_defeating_b ~n_side:16
      ~algorithm:(fun () -> Portfolio.greedy ())
      ~k_max:9
  with
  | Some k -> check_bool "within range" true (k >= 1 && k <= 9)
  | None -> Alcotest.fail "greedy should be defeated at some k <= 9"

(* ael(16) on a 4096^2 grid survives every b-target k <= 6; the
   adversary's first defeat, at k = 7, spans 4520 columns and does not
   fit the host, so it is no defeat there. *)
let test_unfitting_defeat_not_counted () =
  let algorithm () = Portfolio.ael ~t:16 () in
  let r =
    Online_local.Thm1_adversary.run ~n_side:4096 ~k:7 ~algorithm:(algorithm ()) ()
  in
  check_bool "defeated at k = 7" true
    (match r.Online_local.Thm1_adversary.result with `Defeated _ -> true | `Survived -> false);
  check_bool "wider than the host" false r.Online_local.Thm1_adversary.fits;
  check_bool "no fitting defeat for k <= 7" true
    (Measure.min_defeating_b ~n_side:4096 ~algorithm ~k_max:7 = None)

let () =
  Alcotest.run "portfolio"
    [
      ( "portfolio",
        [
          Alcotest.test_case "baselines named" `Quick test_baselines_named;
          Alcotest.test_case "stripes3 survives upper grid" `Quick
            test_stripes3_survives_upper_grid;
          Alcotest.test_case "thm1 defeats ael T1" `Quick
            test_thm1_defeats_ael_t1;
        ] );
      ( "measure",
        [
          Alcotest.test_case "adversarial orders" `Quick
            test_adversarial_orders_are_permutations;
          Alcotest.test_case "min locality binary search" `Quick
            test_min_locality_binary_search;
          Alcotest.test_case "min locality kp1" `Slow test_min_locality_kp1_on_grid;
          Alcotest.test_case "min defeating b" `Quick test_min_defeating_b;
          Alcotest.test_case "an unfitting defeat does not count" `Quick
            test_unfitting_defeat_not_counted;
        ] );
    ]
