open Online_local
module T3 = Thm3_adversary
module A = Models.Algorithm

let check_bool = Alcotest.(check bool)

let defeated r = match r.T3.result with `Defeated _ -> true | `Survived -> false

let test_defeats_greedy () =
  List.iter
    (fun k ->
      let r = T3.run ~k ~gadgets:9 ~algorithm:A.greedy_first_fit () in
      check_bool (Printf.sprintf "k=%d" k) true (defeated r);
      check_bool "preconditions" true r.T3.preconditions_met)
    [ 3; 4 ]

(* The replay audit passes every run of the attack, on the seam host
   and on the plain one, and changes nothing in its report. *)
let test_validated_attack () =
  let reports =
    List.map
      (fun (k, gadgets) ->
        let plain = T3.run ~k ~gadgets ~algorithm:A.greedy_first_fit () in
        let audited = T3.run ~validate:true ~k ~gadgets ~algorithm:A.greedy_first_fit () in
        check_bool "same report" true (plain = audited);
        audited)
      [ (3, 7); (4, 7); (3, 3) ]
  in
  check_bool "seam and plain hosts" true
    (List.exists (fun r -> r.T3.seam_used) reports
    && List.exists (fun r -> not r.T3.seam_used) reports)

let test_gadget_rows_proper_on_plain () =
  (* The row-coloring baseline is proper on the plain chain... with only
     k colors, well inside the 2k-2 palette. *)
  let k = 3 and gadgets = 7 in
  let chain = Topology.Gadget.create ~k ~gadgets () in
  let host = Topology.Gadget.graph chain in
  let hints v =
    let g, i, j = Topology.Gadget.coords chain v in
    Some (Models.View.Gadget_pos { frame = 0; gadget = g; row = i; col = j })
  in
  let outcome =
    Models.Fixed_host.run ~hints ~host
      ~palette:((2 * k) - 2)
      ~algorithm:(Portfolio.gadget_rows ())
      ~order:(Models.Fixed_host.orders ~all:host `Sequential)
      ()
  in
  check_bool "proper on plain host" true
    (Models.Run_stats.succeeded outcome ~colors:((2 * k) - 2) ~host)

let test_classifications_conflict () =
  (* Against any algorithm that colored both end gadgets properly, the
     chosen host forces the classes to conflict; the report captures the
     probe classes. *)
  let r = T3.run ~k:3 ~gadgets:9 ~algorithm:A.greedy_first_fit () in
  match (r.T3.first_class, r.T3.result) with
  | Some _, `Defeated _ -> ()
  | None, `Defeated _ -> ()  (* the probe itself already failed *)
  | _, `Survived -> Alcotest.fail "adversary must not lose"

let test_seam_choice_logic () =
  (* An algorithm that always makes gadgets column-colorful (the
     canonical row coloring, read off hints) triggers the seam. *)
  let k = 3 and gadgets = 9 in
  let canonical =
    A.stateless ~name:"canonical-rows" ~locality:(fun ~n:_ -> 1) (fun view ->
        match view.Models.View.hint view.Models.View.target with
        | Some (Models.View.Gadget_pos { row; _ }) -> row
        | _ -> 0)
  in
  ignore canonical;
  (* Fixed_host in T3.run provides no hints, so instead make a stateful
     algorithm that decodes gadget coordinates from node identifiers
     (ids are host node + 1). *)
  let by_id =
    A.stateless ~name:"id-rows" ~locality:(fun ~n:_ -> 1) (fun view ->
        let v = view.Models.View.id view.Models.View.target - 1 in
        let i = v / k mod k in
        i)
  in
  let r = T3.run ~k ~gadgets ~algorithm:by_id () in
  check_bool "seam used" true r.T3.seam_used;
  check_bool "defeated" true (defeated r)

let test_validation () =
  Alcotest.check_raises "k too small" (Invalid_argument "thm3: k must be >= 3")
    (fun () -> ignore (T3.run ~k:2 ~gadgets:5 ~algorithm:A.greedy_first_fit ()));
  Alcotest.check_raises "gadget count"
    (Invalid_argument "thm3: need at least 3 gadgets") (fun () ->
      ignore (T3.run ~k:3 ~gadgets:2 ~algorithm:A.greedy_first_fit ()))

let test_preconditions_with_large_locality () =
  (* An algorithm with locality comparable to the chain length defeats
     the preconditions (as Theorem 3 predicts: the bound is Omega(n)). *)
  let wide =
    A.stateless ~name:"wide" ~locality:(fun ~n -> n) (fun _ -> 0)
  in
  let r = T3.run ~k:3 ~gadgets:5 ~algorithm:wide () in
  check_bool "preconditions false" false r.T3.preconditions_met

let test_brute_force_seam_unsolvable () =
  (* Ground truth: pin gadget 0 column-colorful and the last gadget
     column-colorful on the seam host (which transposes the suffix), and
     check no proper (2k-2)-coloring completes it. *)
  let k = 3 and gadgets = 3 in
  let seam = 1 in
  let chain = Topology.Gadget.create ~seam ~k ~gadgets () in
  let host = Topology.Gadget.graph chain in
  let pin chain_host =
    let partial =
      Colorings.Coloring.create (Grid_graph.Graph.n (Topology.Gadget.graph chain_host))
    in
    (* Canonical row coloring (row i monochromatic with color i) on both
       end gadgets: column-colorful in raw coordinates. *)
    List.iter
      (fun g ->
        List.iteri
          (fun idx v -> Colorings.Coloring.set partial v (idx / k))
          (Topology.Gadget.gadget_nodes chain_host g))
      [ 0; gadgets - 1 ];
    partial
  in
  let partial = pin chain in
  check_bool "pin is itself proper" true (Colorings.Coloring.is_proper host partial);
  (* On the seam host the suffix is transposed, so the two raw-identical
     pins classify differently after the isomorphism: unsolvable. *)
  check_bool "no proper completion on seam host" false
    (Colorings.Brute.exists_coloring ~partial host ~colors:((2 * k) - 2));
  (* The very same pins complete fine on the plain chain. *)
  let plain = Topology.Gadget.create ~k ~gadgets () in
  check_bool "solvable on plain host" true
    (Colorings.Brute.exists_coloring ~partial:(pin plain)
       (Topology.Gadget.graph plain)
       ~colors:((2 * k) - 2))

let () =
  Alcotest.run "thm3-adversary"
    [
      ( "attack",
        [
          Alcotest.test_case "defeats greedy" `Slow test_defeats_greedy;
          Alcotest.test_case "baseline proper on plain" `Quick test_gadget_rows_proper_on_plain;
          Alcotest.test_case "classification conflict" `Quick test_classifications_conflict;
          Alcotest.test_case "seam choice" `Quick test_seam_choice_logic;
          Alcotest.test_case "validated attack" `Quick test_validated_attack;
        ] );
      ( "validation",
        [
          Alcotest.test_case "argument validation" `Quick test_validation;
          Alcotest.test_case "large locality preconditions" `Quick test_preconditions_with_large_locality;
          Alcotest.test_case "brute force seam unsolvable" `Slow test_brute_force_seam_unsolvable;
        ] );
    ]
