open Online_local
module T1 = Thm1_adversary
module A = Models.Algorithm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let defeated r = match r.T1.result with `Defeated _ -> true | `Survived -> false

let test_defeats_greedy_validated () =
  let r = T1.run ~validate:true ~n_side:300 ~k:9 ~algorithm:A.greedy_first_fit () in
  check_bool "defeated" true (defeated r);
  check_bool "fits" true r.T1.fits

let test_defeats_hint_parity () =
  let r = T1.run ~validate:true ~n_side:300 ~k:9 ~algorithm:A.hint_parity () in
  check_bool "defeated" true (defeated r)

let test_defeats_stripes3 () =
  (* stripes3 is proper on any fixed grid; only the deferred placement
     catches it. *)
  let r = T1.run ~validate:true ~n_side:300 ~k:9 ~algorithm:(Portfolio.stripes3 ()) () in
  check_bool "defeated" true (defeated r)

let test_defeats_underprovisioned_ael () =
  List.iter
    (fun t ->
      let k = (4 * t) + 5 in
      let n_side = 8 * ((2 * t) + 4) * (1 lsl k) in
      let algo = Portfolio.ael ~t () in
      let r = T1.run ~n_side ~k ~algorithm:algo () in
      check_bool (Printf.sprintf "ael T=%d defeated at k=%d" t k) true (defeated r);
      check_bool "construction fits" true r.T1.fits)
    [ 1 ]

let test_guaranteed_formula () =
  check_bool "k=9 t=1" true (T1.guaranteed ~t:1 ~k:9);
  check_bool "k=8 t=1" false (T1.guaranteed ~t:1 ~k:8);
  check_bool "k=13 t=2" true (T1.guaranteed ~t:2 ~k:13)

let test_recommended_k () =
  (* w(0) = 3 with t=1; w(k) = 2w+3: 3,9,21,45,93,189,381 -> for
     n_side=100, k=4 (w=93 <= 100, w(5)=189 > 100). *)
  check_int "n=100 t=1" 4 (T1.recommended_k ~n_side:100 ~t:1);
  check_int "tiny grid" 0 (T1.recommended_k ~n_side:4 ~t:2);
  check_bool "monotone in n" true
    (T1.recommended_k ~n_side:100_000 ~t:1 > T1.recommended_k ~n_side:100 ~t:1)

let test_survivor_has_zero_cycle_b () =
  (* A generously provisioned AEL survives a small-k attack, and the
     closing cycle's b-value is exactly zero (Lemma 3.4 live). *)
  let algo = Portfolio.ael ~t:8 () in
  let r = T1.run ~validate:true ~n_side:400 ~k:3 ~algorithm:algo () in
  check_bool "survived" true (not (defeated r));
  Alcotest.(check (option int)) "cycle b zero" (Some 0) r.T1.cycle_b;
  check_bool "path forced to b >= 3" true (r.T1.forced_b >= 3)

let test_forced_b_reaches_target () =
  (* Without the endgame, the recursion alone must reach b >= k against a
     surviving algorithm. *)
  let algo = Portfolio.ael ~t:6 () in
  let r = T1.run ~endgame:false ~validate:true ~n_side:400 ~k:2 ~algorithm:algo () in
  if not (defeated r) then check_bool "b >= 2" true (r.T1.forced_b >= 2)

let test_width_recurrence_respected () =
  (* The discovered region stays within the paper's 5^{k+1} T bound (we
     track the much tighter 2^k bound). *)
  let algo = Portfolio.ael ~t:4 () in
  let r = T1.run ~endgame:false ~n_side:2000 ~k:3 ~algorithm:algo () in
  let t = 4 in
  let rec pow5 e = if e = 0 then 1 else 5 * pow5 (e - 1) in
  check_bool "within 5^(k+1) T" true (r.T1.width <= pow5 4 * t)

let test_monotone_defeat_threshold () =
  (* If the adversary defeats ael(t) at b-target k, larger targets keep
     defeating it (the recursion only grows). *)
  let algo () = Portfolio.ael ~t:2 () in
  match Measure.min_defeating_b ~n_side:3000 ~algorithm:algo ~k_max:8 with
  | None -> Alcotest.fail "expected ael(2) to fall by k=8"
  | Some k0 ->
      let r = T1.run ~n_side:3000 ~k:(min 8 (k0 + 1)) ~algorithm:(algo ()) () in
      check_bool "still defeated above threshold" true (defeated r)

let test_prescribed_ael_survives_feasible_instances () =
  (* The tightness story in one test: AEL at its prescribed O(log n)
     locality cannot be defeated by any b-target that fits a feasible
     grid — the adversary would need k > 4T + 4, but the largest fitting
     k at T = 3 log2 n is far smaller on any materializable n_side. *)
  List.iter
    (fun n_side ->
      let algo = Kp1_coloring.ael_bipartite () in
      let t = algo.Models.Algorithm.locality ~n:(n_side * n_side) in
      let k = max 1 (T1.recommended_k ~n_side ~t) in
      check_bool "theory predicts survival" false (T1.guaranteed ~t ~k);
      let r = T1.run ~n_side ~k ~algorithm:algo () in
      check_bool
        (Printf.sprintf "survives n_side=%d (T=%d, k=%d)" n_side t k)
        true
        (not (defeated r));
      (* And the closing cycle, when the endgame ran, is b = 0. *)
      match r.T1.cycle_b with
      | Some b -> check_int "cycle b" 0 b
      | None -> ())
    [ 120; 200 ]

let test_frontier_grows_with_locality () =
  (* The minimal defeating b-target is non-decreasing in the algorithm's
     locality — the empirical shape of Theta(log n). *)
  let frontier t =
    Measure.min_defeating_b ~n_side:4000
      ~algorithm:(fun () -> Portfolio.ael ~t ())
      ~k_max:10
  in
  match (frontier 1, frontier 4) with
  | Some k1, Some k4 -> check_bool "frontier grows" true (k1 <= k4)
  | _ -> Alcotest.fail "both should be defeated within k <= 10"

(* The adversary's b-values go through Colorings.Bvalue; its own rule
   before that, kept as the reference, agrees on every color pair. *)
let test_a_value_rule () =
  let old_a_value cu cv = if cu = 2 || cv = 2 then 0 else cu - cv in
  for cu = 0 to 2 do
    for cv = 0 to 2 do
      let what = Printf.sprintf "a(%d, %d)" cu cv in
      check_int what (old_a_value cu cv) (Colorings.Bvalue.a_of_colors cu cv);
      check_int (what ^ " by node") (old_a_value cu cv)
        (Colorings.Bvalue.a_value [| cu; cv |] 0 1)
    done
  done

let () =
  Alcotest.run "thm1-adversary"
    [
      ( "defeats",
        [
          Alcotest.test_case "greedy (validated)" `Quick test_defeats_greedy_validated;
          Alcotest.test_case "hint-parity (validated)" `Quick test_defeats_hint_parity;
          Alcotest.test_case "stripes3 (validated)" `Quick test_defeats_stripes3;
          Alcotest.test_case "under-provisioned ael" `Slow test_defeats_underprovisioned_ael;
        ] );
      ( "formulas",
        [
          Alcotest.test_case "guaranteed" `Quick test_guaranteed_formula;
          Alcotest.test_case "recommended_k" `Quick test_recommended_k;
          Alcotest.test_case "a-value rule" `Quick test_a_value_rule;
        ] );
      ( "survival-side",
        [
          Alcotest.test_case "survivor cycle b = 0" `Slow test_survivor_has_zero_cycle_b;
          Alcotest.test_case "forced b reaches target" `Quick test_forced_b_reaches_target;
          Alcotest.test_case "width within paper bound" `Quick test_width_recurrence_respected;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "monotone defeat" `Slow test_monotone_defeat_threshold;
          Alcotest.test_case "prescribed AEL survives" `Slow
            test_prescribed_ael_survives_feasible_instances;
          Alcotest.test_case "frontier grows with T" `Slow test_frontier_grows_with_locality;
        ] );
    ]
