open Online_local
module FH = Models.Fixed_host
module RS = Models.Run_stats

let check_bool = Alcotest.(check bool)

let grid rows cols =
  Topology.Grid2d.graph (Topology.Grid2d.create Topology.Grid2d.Simple ~rows ~cols)

let run_reduced ~base ~k ~t ~seed =
  (* A colors G_{k+1} with k+2 colors; A' = reduce A colors G_k with k+1. *)
  let lay = Topology.Layered.create ~base ~k in
  let host = Topology.Layered.graph lay in
  let inner = Kp1_coloring.make ~k:(k + 1) ~locality:(fun ~n:_ -> t) () in
  let algo = Thm5_reduction.reduce ~inner in
  let order = FH.orders ~all:host (`Random seed) in
  let outcome =
    FH.run ~oracle:(Oracles.layered lay) ~host ~palette:(k + 1) ~algorithm:algo
      ~order ()
  in
  RS.succeeded outcome ~colors:(k + 1) ~host

let test_reduction_correct_k3 () =
  for seed = 0 to 4 do
    check_bool
      (Printf.sprintf "G_3 seed %d" seed)
      true
      (run_reduced ~base:(grid 5 5) ~k:3 ~t:8 ~seed)
  done

let test_reduction_correct_k4 () =
  check_bool "G_4" true (run_reduced ~base:(grid 4 4) ~k:4 ~t:10 ~seed:1)

let test_reduction_base_case_grid () =
  (* k = 2: reduce an algorithm for G_3 down to the plain grid. *)
  check_bool "grid via reduction" true (run_reduced ~base:(grid 6 6) ~k:2 ~t:8 ~seed:2)

let test_locality_relation () =
  let inner =
    {
      Models.Algorithm.name = "loc-probe";
      locality = (fun ~n -> n);
      instantiate = (fun ~n:_ ~palette:_ ~oracle:_ _ -> 0);
    }
  in
  let reduced = Thm5_reduction.reduce ~inner in
  Alcotest.(check int) "locality evaluated at 2n" 14 (reduced.Models.Algorithm.locality ~n:7)

let test_extra_color_path_taken () =
  (* Force A to answer the extra color on mains by wrapping kp1 with a
     spy, and check A' still colors properly whenever A is proper. *)
  let uses = ref 0 in
  let inner_raw = Kp1_coloring.make ~k:4 ~locality:(fun ~n:_ -> 6) () in
  let inner =
    {
      inner_raw with
      Models.Algorithm.instantiate =
        (fun ~n ~palette ~oracle ->
          let f = inner_raw.Models.Algorithm.instantiate ~n ~palette ~oracle in
          fun view ->
            let c = f view in
            if c = palette - 1 then incr uses;
            c);
    }
  in
  let lay = Topology.Layered.create ~base:(grid 5 5) ~k:3 in
  let host = Topology.Layered.graph lay in
  let algo = Thm5_reduction.reduce ~inner in
  let ok = ref true in
  for seed = 0 to 6 do
    let order = FH.orders ~all:host (`Random seed) in
    let outcome =
      FH.run ~oracle:(Oracles.layered lay) ~host ~palette:4 ~algorithm:algo ~order ()
    in
    ok := !ok && RS.succeeded outcome ~colors:4 ~host
  done;
  check_bool "all runs proper" true !ok
  (* NOTE: whether the spare-color path fires depends on merge patterns;
     we record the count but only assert correctness either way. *)

let test_failure_transport () =
  (* If A is hopeless (constant color), A' inherits the failure — the
     contrapositive direction used in the proof of Lemma 5.7. *)
  let constant =
    Models.Algorithm.stateless ~name:"constant" ~locality:(fun ~n:_ -> 1) (fun _ -> 0)
  in
  let algo = Thm5_reduction.reduce ~inner:constant in
  let lay = Topology.Layered.create ~base:(grid 4 4) ~k:3 in
  let host = Topology.Layered.graph lay in
  let outcome =
    FH.run ~oracle:(Oracles.layered lay) ~host ~palette:4 ~algorithm:algo
      ~order:(FH.orders ~all:host `Sequential) ()
  in
  check_bool "reduced constant fails" false (RS.succeeded outcome ~colors:4 ~host)

let test_composed_reductions () =
  (* Climb two levels: reduce (reduce (kp1 for G_5)) colors G_3. *)
  let inner = Kp1_coloring.make ~k:5 ~locality:(fun ~n:_ -> 8) () in
  let once = Thm5_reduction.reduce ~inner in
  let twice = Thm5_reduction.reduce ~inner:once in
  let lay = Topology.Layered.create ~base:(grid 4 4) ~k:3 in
  let host = Topology.Layered.graph lay in
  let outcome =
    FH.run ~oracle:(Oracles.layered lay) ~host ~palette:4 ~algorithm:twice
      ~order:(FH.orders ~all:host (`Random 5)) ()
  in
  check_bool "double reduction proper" true (RS.succeeded outcome ~colors:4 ~host)

let () =
  Alcotest.run "thm5-reduction"
    [
      ( "correctness",
        [
          Alcotest.test_case "G_3" `Quick test_reduction_correct_k3;
          Alcotest.test_case "G_4" `Slow test_reduction_correct_k4;
          Alcotest.test_case "grid base case" `Quick test_reduction_base_case_grid;
          Alcotest.test_case "extra color path" `Slow test_extra_color_path_taken;
        ] );
      ( "structure",
        [
          Alcotest.test_case "locality at 2n" `Quick test_locality_relation;
          Alcotest.test_case "failure transport" `Quick test_failure_transport;
          Alcotest.test_case "composed reductions" `Slow test_composed_reductions;
        ] );
    ]
