(* Experiments.Fit against synthetic data with known closed forms. *)

module Fit = Experiments.Fit

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

let test_exact_line () =
  (* y = 2x + 1, fit must be exact with r^2 = 1. *)
  let pts = List.map (fun x -> (float_of_int x, (2.0 *. float_of_int x) +. 1.0)) [ 1; 2; 3; 5; 8; 13 ] in
  let l = Fit.fit pts in
  check_float "slope" 2.0 l.Fit.slope;
  check_float "intercept" 1.0 l.Fit.intercept;
  check_float "r_squared" 1.0 l.Fit.r_squared;
  List.iter (check_float "residual" 0.0) l.Fit.residuals;
  check_float "se slope" 0.0 l.Fit.se_slope;
  check_float "se intercept" 0.0 l.Fit.se_intercept

let test_negative_slope () =
  let pts = [ (0.0, 10.0); (1.0, 7.0); (2.0, 4.0); (3.0, 1.0) ] in
  let l = Fit.fit pts in
  check_float "slope" (-3.0) l.Fit.slope;
  check_float "intercept" 10.0 l.Fit.intercept;
  check_float "r_squared" 1.0 l.Fit.r_squared

let test_constant_data () =
  (* Zero variance in y: slope 0 and a degenerate r^2 (nan from 0/0). *)
  let l = Fit.fit [ (0.0, 5.0); (1.0, 5.0); (2.0, 5.0) ] in
  check_float "slope" 0.0 l.Fit.slope;
  check_float "intercept" 5.0 l.Fit.intercept;
  check_bool "r_squared degenerate" true (Float.is_nan l.Fit.r_squared)

let test_imperfect_fit () =
  (* Off-line points: 0 < r^2 < 1 and the residual-minimizing slope. *)
  let l = Fit.fit [ (0.0, 0.0); (1.0, 1.0); (2.0, 1.0); (3.0, 2.0) ] in
  check_float "slope" 0.6 l.Fit.slope;
  check_float "intercept" 0.1 l.Fit.intercept;
  check_bool "r_squared in (0,1)" true (l.Fit.r_squared > 0.0 && l.Fit.r_squared < 1.0);
  (* Residuals y - (0.6x + 0.1); their squares sum to 0.2, so
     s^2 = 0.2 / (4 - 2) = 0.1, and Sxx = 5 about mean x = 1.5. *)
  Alcotest.(check (list (float 1e-9)))
    "residuals" [ -0.1; 0.3; -0.3; 0.1 ] l.Fit.residuals;
  check_float "se slope = sqrt (0.1 / 5)" (sqrt 0.02) l.Fit.se_slope;
  check_float "se intercept = sqrt (0.1 * (1/4 + 2.25/5))" (sqrt 0.07)
    l.Fit.se_intercept;
  Alcotest.(check (float 1e-5)) "se slope, rounded" 0.14142 l.Fit.se_slope;
  Alcotest.(check (float 1e-5)) "se intercept, rounded" 0.26458 l.Fit.se_intercept

let test_two_points () =
  (* Two points fit exactly and leave no degree of freedom: zero
     residuals, undefined standard errors — not an exception. *)
  let l = Fit.fit [ (0.0, 1.0); (2.0, 5.0) ] in
  check_float "slope" 2.0 l.Fit.slope;
  List.iter (check_float "residual" 0.0) l.Fit.residuals;
  check_bool "se slope nan" true (Float.is_nan l.Fit.se_slope);
  check_bool "se intercept nan" true (Float.is_nan l.Fit.se_intercept)

let test_pp_unchanged () =
  (* The printed form carries slope, intercept and R^2 only. *)
  Alcotest.(check string)
    "pp" "slope=0.600 intercept=0.100 R^2=0.900"
    (Format.asprintf "%a" Fit.pp (Fit.fit [ (0.0, 0.0); (1.0, 1.0); (2.0, 1.0); (3.0, 2.0) ]))

let test_fit_log_x () =
  (* y = 3 log2 x + 2: fit_log_x recovers slope 3 exactly. *)
  let pts =
    List.map
      (fun x ->
        (float_of_int x, (3.0 *. (Float.log (float_of_int x) /. Float.log 2.0)) +. 2.0))
      [ 2; 4; 8; 16; 64; 256 ]
  in
  let l = Fit.fit_log_x pts in
  check_float "slope" 3.0 l.Fit.slope;
  check_float "intercept" 2.0 l.Fit.intercept;
  check_float "r_squared" 1.0 l.Fit.r_squared

let test_too_few_points () =
  Alcotest.check_raises "fewer than 2 points"
    (Invalid_argument "Fit.fit: need at least 2 points") (fun () ->
      ignore (Fit.fit [ (1.0, 1.0) ]))

let test_pp_mentions_fields () =
  let s = Format.asprintf "%a" Fit.pp (Fit.fit [ (0.0, 1.0); (1.0, 3.0) ]) in
  check_bool "nonempty" true (String.length s > 0)

let prop_fit_recovers_any_line =
  (* Proptest: for random integer-coefficient lines sampled at distinct
     points, OLS recovers the coefficients. *)
  let name = "fit recovers random exact lines" in
  Alcotest.test_case name `Quick (fun () ->
      let open Proptest in
      Runner.check_exn
        ~config:{ Runner.default_config with Runner.seed = 0xF17; cases = 100 }
        ~name
        ~print:(fun (a, b) -> Printf.sprintf "y = %dx + %d" a b)
        (Gen.pair (Gen.int_range (-20) 20) (Gen.int_range (-20) 20))
        (fun (a, b) ->
          let pts =
            List.map
              (fun x ->
                (float_of_int x, (float_of_int a *. float_of_int x) +. float_of_int b))
              [ 0; 1; 2; 7 ]
          in
          let l = Experiments.Fit.fit pts in
          Float.abs (l.Experiments.Fit.slope -. float_of_int a) < 1e-9
          && Float.abs (l.Experiments.Fit.intercept -. float_of_int b) < 1e-9))

let () =
  Alcotest.run "fit"
    [
      ( "fit",
        [
          Alcotest.test_case "exact line" `Quick test_exact_line;
          Alcotest.test_case "negative slope" `Quick test_negative_slope;
          Alcotest.test_case "constant data" `Quick test_constant_data;
          Alcotest.test_case "imperfect fit" `Quick test_imperfect_fit;
          Alcotest.test_case "two points" `Quick test_two_points;
          Alcotest.test_case "pp unchanged" `Quick test_pp_unchanged;
          Alcotest.test_case "fit_log_x" `Quick test_fit_log_x;
          Alcotest.test_case "too few points" `Quick test_too_few_points;
          Alcotest.test_case "pp" `Quick test_pp_mentions_fields;
          prop_fit_recovers_any_line;
        ] );
    ]
