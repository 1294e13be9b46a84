open Online_local
module T2 = Thm2_adversary
module A = Models.Algorithm
open Grid_graph

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let defeated r = match r.T2.result with `Defeated _ -> true | `Survived -> false

let test_variant_plain_is_the_grid () =
  List.iter
    (fun (wrap, g2wrap) ->
      let side = 7 in
      let plain =
        T2.variant_host ~wrap ~rows:side ~cols:side ~reflect:false ~band_lo:3 ~band_hi:5
      in
      let reference =
        Topology.Grid2d.graph (Topology.Grid2d.create g2wrap ~rows:side ~cols:side)
      in
      check_bool "equal to reference grid" true (Graph.equal plain reference))
    [ (`Cylindrical, Topology.Grid2d.Cylindrical); (`Toroidal, Topology.Grid2d.Toroidal) ]

let test_variant_isomorphic () =
  (* phi = column reflection inside the band maps the reflected variant
     onto the plain grid. *)
  List.iter
    (fun wrap ->
      let side = 7 and band_lo = 3 and band_hi = 5 in
      let plain = T2.variant_host ~wrap ~rows:side ~cols:side ~reflect:false ~band_lo ~band_hi in
      let refl = T2.variant_host ~wrap ~rows:side ~cols:side ~reflect:true ~band_lo ~band_hi in
      let phi v =
        let r = v / side and j = v mod side in
        if r >= band_lo && r <= band_hi then (r * side) + ((side - j) mod side) else v
      in
      check_int "same edge count" (Graph.m plain) (Graph.m refl);
      Graph.iter_edges refl (fun u v ->
          check_bool "phi maps edges" true (Graph.mem_edge plain (phi u) (phi v))))
    [ `Cylindrical; `Toroidal ]

let test_variant_agrees_on_bands () =
  (* Induced subgraphs on the revealed bands coincide between variants. *)
  let wrap = `Toroidal and side = 13 in
  let band_lo = 3 and band_hi = 7 in
  let plain = T2.variant_host ~wrap ~rows:side ~cols:side ~reflect:false ~band_lo ~band_hi in
  let refl = T2.variant_host ~wrap ~rows:side ~cols:side ~reflect:true ~band_lo ~band_hi in
  let rows_nodes rows = List.concat_map (fun r -> List.init side (fun j -> (r * side) + j)) rows in
  List.iter
    (fun rows ->
      let a = Subgraph.induced plain (rows_nodes rows) in
      let b = Subgraph.induced refl (rows_nodes rows) in
      check_bool "identical induced band" true (Graph.equal a.Subgraph.graph b.Subgraph.graph))
    [ [ 0; 1; 2 ]; [ 4; 5; 6 ]; [ 8; 9 ] ]

(* The row b-value the adversary computed before it went through
   Colorings.Bvalue, kept verbatim as the reference. *)
let row_cycle_b_rect coloring ~cols ~row ~east =
  let color j = Colorings.Coloring.get_exn coloring ((row * cols) + j) in
  let a cu cv = if cu = 2 || cv = 2 then 0 else cu - cv in
  let b = ref 0 in
  for j = 0 to cols - 1 do
    let j' = (j + 1) mod cols in
    if east then b := !b + a (color j) (color j')
    else b := !b + a (color j') (color j)
  done;
  !b

(* What the adversary computes now: Bvalue.b_cycle over the row's nodes,
   reversed for the westward direction. *)
let bvalue_row colors ~cols ~row ~east =
  let nodes = List.init cols (fun j -> (row * cols) + j) in
  Colorings.Bvalue.b_cycle colors (if east then nodes else List.rev nodes)

let test_row_cycle_b () =
  let rng = Random.State.make [| 0x7B2 |] in
  for case = 1 to 400 do
    (* odd and even widths; arbitrary, often improper, colors *)
    let rows = 1 + Random.State.int rng 3 and cols = 3 + Random.State.int rng 18 in
    let colors = Array.init (rows * cols) (fun _ -> Random.State.int rng 3) in
    let coloring = Colorings.Coloring.of_array colors in
    for row = 0 to rows - 1 do
      List.iter
        (fun east ->
          check_int
            (Printf.sprintf "case %d: %dx%d row %d east=%b" case rows cols row east)
            (row_cycle_b_rect coloring ~cols ~row ~east)
            (bvalue_row colors ~cols ~row ~east))
        [ true; false ]
    done
  done;
  (* Stripes (i + j) mod 3 on a 3-divisible cylinder: each a-value along
     a row is defined and sums telescope. *)
  let side = 9 in
  let colors = Array.init (side * side) (fun v -> ((v / side) + (v mod side)) mod 3) in
  check_int "reversal negates" 0
    (bvalue_row colors ~cols:side ~row:2 ~east:true
    + bvalue_row colors ~cols:side ~row:2 ~east:false)

let test_defeats_greedy () =
  List.iter
    (fun wrap ->
      List.iter
        (fun side ->
          let r = T2.run ~wrap ~side ~algorithm:A.greedy_first_fit () in
          check_bool
            (Printf.sprintf "defeated side=%d" side)
            true (defeated r);
          check_bool "preconditions" true r.T2.preconditions_met)
        [ 9; 13; 21 ])
    [ `Cylindrical; `Toroidal ]

let test_defeats_stripes () =
  (* stripes3 colors (row+col) mod 3 from hints; Fixed_host provides no
     hints here so it answers 0 everywhere — trivially defeated.  The
     interesting victim is an algorithm that is proper on the plain host:
     simulate one by coloring from the node id's coordinates. *)
  let id_stripes side =
    A.stateless ~name:"id-stripes" ~locality:(fun ~n:_ -> 1) (fun view ->
        let v = view.Models.View.id view.Models.View.target - 1 in
        ((v / side) + (v mod side)) mod 3)
  in
  let side = 9 in
  (* id-stripes 3-colors the plain toroidal grid properly (side mod 3 = 0). *)
  let host =
    T2.variant_host ~wrap:`Toroidal ~rows:side ~cols:side ~reflect:false ~band_lo:3
      ~band_hi:5
  in
  let outcome =
    Models.Fixed_host.run ~host ~palette:3 ~algorithm:(id_stripes side)
      ~order:(Models.Fixed_host.orders ~all:host `Sequential)
      ()
  in
  check_bool "proper on plain host" true
    (Models.Run_stats.succeeded outcome ~colors:3 ~host);
  (* ... and the adversary still defeats it. *)
  let r = T2.run ~wrap:`Toroidal ~side ~algorithm:(id_stripes side) () in
  check_bool "defeated by reflection" true (defeated r)

let test_row_b_values_odd () =
  (* When the run survives to a full coloring, both recorded row b-values
     are odd (Lemma 3.5 with odd side). *)
  let side = 9 in
  let id_stripes =
    A.stateless ~name:"id-stripes" ~locality:(fun ~n:_ -> 1) (fun view ->
        let v = view.Models.View.id view.Models.View.target - 1 in
        ((v / side) + (v mod side)) mod 3)
  in
  let r = T2.run ~wrap:`Cylindrical ~side ~algorithm:id_stripes () in
  (* Defeated or not, if s-values were computed from a total coloring,
     they are odd. *)
  if r.T2.s_east <> 0 || r.T2.s_west <> 0 then begin
    check_int "s_east odd" 1 (abs r.T2.s_east mod 2);
    check_int "s_west odd" 1 (abs r.T2.s_west mod 2)
  end

let test_ael_faults_on_torus () =
  (* AEL assumes a bipartite host; on an odd torus its parity labeling
     meets an odd cycle and raises.  The executor records the crash as
     an Algorithm_failure certificate, which Verdict classifies as an
     algorithm fault: the run proves nothing about the theorem. *)
  let r = T2.run ~wrap:`Toroidal ~side:13 ~algorithm:(Portfolio.ael ~t:1 ()) () in
  match Verdict.classify None (Ok r.T2.result) with
  | Verdict.Algorithm_fault (Harness.Misbehavior.Raised _) -> ()
  | o -> Alcotest.failf "expected a raised algorithm fault, got %s" (Verdict.label o)

let test_preconditions_reported () =
  (* side too small for T=1: 4T+4 = 8 > 7. *)
  let r = T2.run ~wrap:`Cylindrical ~side:7 ~algorithm:A.greedy_first_fit () in
  check_bool "preconditions false" false r.T2.preconditions_met

let test_even_side_not_guaranteed () =
  let r = T2.run ~wrap:`Cylindrical ~side:12 ~algorithm:A.greedy_first_fit () in
  check_bool "even side -> preconditions false" false r.T2.preconditions_met

(* Below the 4T+4 row threshold the band rows t and 3t+2 can lie outside
   the host (side 7 against AEL T=3 puts row 11 on a 7-row torus).  Every
   such game must still end in a report: the missing row contributes no
   prefix nodes and reads b = 0. *)
let test_below_threshold_games () =
  List.iter
    (fun wrap ->
      for side = 5 to 15 do
        List.iter
          (fun (label, algorithm, t) ->
            let r = T2.run ~wrap ~side ~algorithm () in
            let what = Printf.sprintf "%s side=%d" label side in
            check_bool (what ^ " preconditions") ((4 * t) + 4 <= side && side mod 2 = 1)
              r.T2.preconditions_met;
            if (3 * t) + 2 >= side then check_int (what ^ " missing row b") 0 r.T2.s_west)
          (("greedy", A.greedy_first_fit, A.greedy_first_fit.A.locality ~n:(side * side))
          :: List.map
               (fun t -> (Printf.sprintf "ael(T=%d)" t, Portfolio.ael ~t (), t))
               [ 1; 2; 3; 4 ])
      done)
    [ `Toroidal; `Cylindrical ]

let test_fixed_host_rejects_foreign_nodes () =
  let host =
    T2.variant_host ~wrap:`Toroidal ~rows:5 ~cols:5 ~reflect:false ~band_lo:1 ~band_hi:3
  in
  List.iter
    (fun bad ->
      match
        Models.Fixed_host.run ~host ~palette:3 ~algorithm:A.greedy_first_fit
          ~order:[ 0; bad; 1 ] ()
      with
      | _ -> Alcotest.failf "order entry %d was presented" bad
      | exception Models.Run_stats.Dishonest_transcript _ -> ())
    [ 25; 100; -1 ]

(* Every trace event [f] emits with a hook installed, and its result. *)
let traced f =
  let events = ref [] in
  Obs.Trace.set_hook (Some (fun ev -> events := ev :: !events));
  let r = Fun.protect ~finally:(fun () -> Obs.Trace.set_hook None) f in
  (r, List.rev !events)

(* The replay audit passes both runs of the attack and changes nothing
   in its report, and the adversary's win traces nothing anomalous, so
   a flight recorder keeps its ring. *)
let test_validated_attack () =
  List.iter
    (fun wrap ->
      let plain = T2.run ~wrap ~side:13 ~algorithm:A.greedy_first_fit () in
      let audited, events =
        traced (fun () -> T2.run ~validate:true ~wrap ~side:13 ~algorithm:A.greedy_first_fit ())
      in
      check_bool "defeated" true (defeated audited && audited.T2.reflected);
      check_bool "same report" true (plain = audited);
      check_bool "nothing anomalous" false (List.exists Obs.Trace.anomalous events))
    [ `Toroidal; `Cylindrical ]

let () =
  Alcotest.run "thm2-adversary"
    [
      ( "host-variants",
        [
          Alcotest.test_case "plain = grid" `Quick test_variant_plain_is_the_grid;
          Alcotest.test_case "isomorphic" `Quick test_variant_isomorphic;
          Alcotest.test_case "bands agree" `Quick test_variant_agrees_on_bands;
          Alcotest.test_case "row cycle b" `Quick test_row_cycle_b;
        ] );
      ( "attack",
        [
          Alcotest.test_case "defeats greedy" `Quick test_defeats_greedy;
          Alcotest.test_case "defeats proper stripes" `Quick test_defeats_stripes;
          Alcotest.test_case "row b odd" `Quick test_row_b_values_odd;
          Alcotest.test_case "ael crashes into a certificate" `Quick test_ael_faults_on_torus;
          Alcotest.test_case "preconditions small side" `Quick test_preconditions_reported;
          Alcotest.test_case "preconditions even side" `Quick test_even_side_not_guaranteed;
          Alcotest.test_case "below-threshold games end" `Quick test_below_threshold_games;
          Alcotest.test_case "fixed host rejects foreign nodes" `Quick
            test_fixed_host_rejects_foreign_nodes;
          Alcotest.test_case "validated attack" `Quick test_validated_attack;
        ] );
    ]
