(* The streaming statistics registry: exact-integer accumulators, the
   two-limb sum of squares, merge laws, the transport codec, scoped
   deltas, and the Json float edge cases the snapshot rendering relies
   on. *)

module J = Obs.Json
module St = Obs.Stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

(* Each test owns the process-global registry for its duration. *)
let with_stats f =
  St.enable ();
  St.reset ();
  Fun.protect
    ~finally:(fun () ->
      St.reset ();
      St.disable ())
    f

let series name snap =
  match List.assoc_opt name snap with
  | Some s -> s
  | None -> Alcotest.failf "series %s missing from snapshot" name

(* ------------------------- json edge cases ------------------------- *)

let test_json_non_finite () =
  (* Non-finite floats have no JSON spelling: the canonical printer
     degrades them to null rather than emitting unparseable tokens. *)
  check_string "nan" "null" (J.to_string (J.Float Float.nan));
  check_string "inf" "null" (J.to_string (J.Float Float.infinity));
  check_string "-inf" "null" (J.to_string (J.Float Float.neg_infinity));
  check_string "nested" {|{"v":[null,1.5]}|}
    (J.to_string (J.Obj [ ("v", J.List [ J.Float Float.nan; J.Float 1.5 ]) ]))

let test_json_negative_zero () =
  (* -0.0 keeps its sign through print and reparse (%.6f preserves it),
     and stays byte-stable on re-emission. *)
  check_string "negative zero" "-0.0" (J.to_string (J.Float (-0.0)));
  check_string "positive zero" "0.0" (J.to_string (J.Float 0.0));
  let s = J.to_string (J.Float (-0.0)) in
  check_string "reparse stable" s (J.to_string (J.of_string s))

(* --------------------------- accumulator --------------------------- *)

let test_accumulator_exact () =
  with_stats @@ fun () ->
  let values = [ 3; -7; 12; 0; 12; 5 ] in
  List.iter (St.observe "t.series") values;
  let s = series "t.series" (St.drain ()) in
  let n = List.length values in
  check_int "n" n s.St.n;
  check_int "sum" (List.fold_left ( + ) 0 values) s.St.sum;
  check_int "min" (-7) s.St.min_v;
  check_int "max" 12 s.St.max_v;
  let mean = float_of_int s.St.sum /. float_of_int n in
  check_float "mean" mean (St.mean s);
  let var =
    List.fold_left
      (fun acc v -> acc +. ((float_of_int v -. mean) ** 2.))
      0. values
    /. float_of_int (n - 1)
  in
  check_float "variance" var (St.variance s);
  check_float "stddev" (sqrt var) (St.stddev s)

let test_sum_of_squares_carry () =
  (* Three observations of the clamp bound overflow the low limb: the
     exact sum of squares 3*(2^30-1)^2 exceeds 2^61 and must carry into
     the high limb (this is the case that caught [1 lsl 62] = min_int). *)
  with_stats @@ fun () ->
  let c = 0x3FFFFFFF in
  for _ = 1 to 3 do
    St.observe "t.carry" c
  done;
  let s = series "t.carry" (St.drain ()) in
  let total = 3 * (c * c) in
  check_int "sq_hi" 1 s.St.sq_hi;
  check_int "sq_lo" (total - (1 lsl 61)) s.St.sq_lo;
  check_bool "lo in range" true (s.St.sq_lo >= 0 && s.St.sq_lo < 1 lsl 61);
  (* Variance of a constant sample is exactly zero — only true because
     the sums are exact. *)
  check_float "variance of constant" 0. (St.variance s)

let test_clamping () =
  (* Sums and extrema keep the raw value; only the square is clamped so
     it stays representable. *)
  with_stats @@ fun () ->
  let big = 1 lsl 40 in
  St.observe "t.clamp" big;
  St.observe "t.clamp" (-big);
  let s = series "t.clamp" (St.drain ()) in
  check_int "sum keeps raw values" 0 s.St.sum;
  check_int "min raw" (-big) s.St.min_v;
  check_int "max raw" big s.St.max_v;
  let c = 0x3FFFFFFF in
  check_int "squares clamped" (2 * (c * c)) ((s.St.sq_hi * (1 lsl 61)) + s.St.sq_lo)

(* ------------------------------ sketch ----------------------------- *)

let test_sketch_bounds () =
  check_int "zero" 0 (St.sketch_index 0);
  check_int "negative" 0 (St.sketch_index (-5));
  for v = 1 to 7 do
    check_int "small exact" v (St.sketch_index v);
    check_int "small value" v (St.sketch_value (St.sketch_index v))
  done;
  List.iter
    (fun v ->
      let lo = St.sketch_value (St.sketch_index v) in
      check_bool
        (Printf.sprintf "lower bound for %d (bucket lo %d)" v lo)
        true
        (lo <= v && v * 8 <= lo * 9))
    [ 8; 9; 15; 16; 48; 50; 100; 1000; 12345; 1 lsl 50 ];
  (* max_int lands in the last bucket without overflow. *)
  check_bool "max_int bucket" true (St.sketch_index max_int < 480);
  check_bool "max_int bound" true
    (St.sketch_value (St.sketch_index max_int) <= max_int);
  (* Bucket indexes are monotone in the value. *)
  let rec mono prev = function
    | [] -> ()
    | v :: rest ->
        check_bool "monotone" true (St.sketch_index v >= St.sketch_index prev);
        mono v rest
  in
  mono 0 [ 1; 2; 7; 8; 9; 31; 32; 33; 1000; 1 lsl 40 ]

let test_quantiles () =
  with_stats @@ fun () ->
  for v = 1 to 100 do
    St.observe "t.q" v
  done;
  let s = series "t.q" (St.drain ()) in
  (* The rank-50 order statistic is 50; its bucket (values 48..51)
     reports its lower bound. *)
  check_int "p50" 48 (St.quantile s ~num:1 ~den:2);
  check_int "p100 bucket lo" (St.sketch_value (St.sketch_index 100))
    (St.quantile s ~num:1 ~den:1);
  check_int "empty" 0 (St.quantile { s with St.n = 0; sketch = [] } ~num:1 ~den:2)

(* --------------------------- merge laws ---------------------------- *)

(* Build a standalone snapshot without touching the ambient registry
   beyond a scoped window. *)
let snap_of values =
  let (), delta =
    St.scoped (fun () -> List.iter (fun (k, v) -> St.observe k v) values)
  in
  if delta = "" then []
  else
    match St.of_string delta with
    | Ok s -> s
    | Error e -> Alcotest.failf "delta decode: %s" e

let test_merge_laws () =
  with_stats @@ fun () ->
  let a = snap_of [ ("x", 1); ("x", 5); ("y", -3) ] in
  let b = snap_of [ ("x", 1000); ("z", 0) ] in
  let c = snap_of [ ("y", 7); ("z", 0x3FFFFFFF); ("z", 0x3FFFFFFF) ] in
  check_bool "commutative" true (St.merge a b = St.merge b a);
  check_bool "associative" true
    (St.merge a (St.merge b c) = St.merge (St.merge a b) c);
  check_bool "left identity" true (St.merge [] a = a);
  check_bool "right identity" true (St.merge a [] = a)

let test_codec_roundtrip () =
  with_stats @@ fun () ->
  let snap =
    snap_of [ ("a", 1); ("a", 1 lsl 40); ("a", -9); ("b", 0); ("c", 77) ]
  in
  (match St.of_string (St.to_string snap) with
  | Ok back -> check_bool "roundtrip" true (back = snap)
  | Error e -> Alcotest.failf "roundtrip: %s" e);
  check_string "empty snapshot" "[]" (St.to_string []);
  (match St.of_string "[" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  match St.absorb_string "{\"not\":\"a snapshot\"}" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "absorb accepted garbage"

(* ------------------------------ scoped ----------------------------- *)

let test_scoped_delta () =
  with_stats @@ fun () ->
  St.observe "t.s" 1;
  let x, delta =
    St.scoped (fun () ->
        St.observe "t.s" 10;
        St.observe "t.other" 4;
        42)
  in
  check_int "result" 42 x;
  (match St.of_string delta with
  | Ok snap ->
      check_int "delta n" 1 (series "t.s" snap).St.n;
      check_int "delta sum" 10 (series "t.s" snap).St.sum;
      check_int "delta other" 4 (series "t.other" snap).St.sum
  | Error e -> Alcotest.failf "delta: %s" e);
  (* The scope's contribution still lands in this process's drain. *)
  let s = series "t.s" (St.drain ()) in
  check_int "drain n" 2 s.St.n;
  check_int "drain sum" 11 s.St.sum

let test_scoped_empty_and_disabled () =
  (let x, delta = St.scoped (fun () -> 7) in
   check_int "disabled result" 7 x;
   check_string "disabled delta" "" delta);
  with_stats @@ fun () ->
  let x, delta = St.scoped (fun () -> 9) in
  check_int "empty result" 9 x;
  check_string "empty delta" "" delta

let test_scoped_exception_discards () =
  with_stats @@ fun () ->
  (match St.scoped (fun () -> St.observe "t.boom" 5; failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure");
  (* The aborted scope's observations never reach the registry... *)
  check_bool "discarded" true (List.assoc_opt "t.boom" (St.drain ()) = None);
  (* ...and recording is restored to the table afterwards. *)
  St.observe "t.after" 1;
  check_int "restored" 1 (series "t.after" (St.drain ())).St.n

let test_nested_scopes () =
  with_stats @@ fun () ->
  let (inner_delta, outer_delta) =
    let (i, o) =
      St.scoped (fun () ->
          St.observe "t.n" 1;
          let (), d = St.scoped (fun () -> St.observe "t.n" 10) in
          d)
    in
    (i, o)
  in
  (match St.of_string inner_delta with
  | Ok snap -> check_int "inner sum" 10 (series "t.n" snap).St.sum
  | Error e -> Alcotest.failf "inner: %s" e);
  (* The inner scope merges into the outer one, so the outer delta
     carries both contributions. *)
  (match St.of_string outer_delta with
  | Ok snap ->
      check_int "outer n" 2 (series "t.n" snap).St.n;
      check_int "outer sum" 11 (series "t.n" snap).St.sum
  | Error e -> Alcotest.failf "outer: %s" e);
  check_int "drain sum" 11 (series "t.n" (St.drain ())).St.sum

(* -------------------------- absorb / drain ------------------------- *)

let test_absorb_and_drain () =
  with_stats @@ fun () ->
  St.observe "t.a" 1;
  let foreign = snap_of [ ("t.a", 100); ("t.b", 5) ] in
  St.absorb foreign;
  (match St.absorb_string "" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "empty absorb: %s" e);
  let snap = St.drain () in
  (* snap_of already merged [foreign] into this process's table once, so
     the absorbed copy doubles it. *)
  check_int "t.a" (1 + 200) (series "t.a" snap).St.sum;
  check_int "t.b" 10 (series "t.b" snap).St.sum;
  check_bool "sorted" true
    (List.map fst snap = List.sort String.compare (List.map fst snap));
  St.reset ();
  check_bool "reset" true (St.drain () = [])

let () =
  Alcotest.run "stats"
    [
      ( "json",
        [
          Alcotest.test_case "non-finite floats" `Quick test_json_non_finite;
          Alcotest.test_case "negative zero" `Quick test_json_negative_zero;
        ] );
      ( "accumulator",
        [
          Alcotest.test_case "exact moments" `Quick test_accumulator_exact;
          Alcotest.test_case "sum-of-squares carry" `Quick
            test_sum_of_squares_carry;
          Alcotest.test_case "clamping" `Quick test_clamping;
        ] );
      ( "sketch",
        [
          Alcotest.test_case "bucket bounds" `Quick test_sketch_bounds;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
        ] );
      ( "merge",
        [
          Alcotest.test_case "merge laws" `Quick test_merge_laws;
          Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
        ] );
      ( "scoped",
        [
          Alcotest.test_case "delta" `Quick test_scoped_delta;
          Alcotest.test_case "empty and disabled" `Quick
            test_scoped_empty_and_disabled;
          Alcotest.test_case "exception discards" `Quick
            test_scoped_exception_discards;
          Alcotest.test_case "nested scopes" `Quick test_nested_scopes;
        ] );
      ( "registry",
        [
          Alcotest.test_case "absorb and drain" `Quick test_absorb_and_drain;
        ] );
    ]
