open Grid_graph
module O = Models.Oracle
module V = Models.View
module FH = Models.Fixed_host

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_canonicalize () =
  (* Handles [5;2;9] with raw parts [1;0;1]: scanning by handle 2,5,9 the
     first part seen is 0 -> 0, then 1 -> 1. *)
  Alcotest.(check (array int)) "renamed" [| 1; 0; 1 |] (O.canonicalize [| 1; 0; 1 |] [ 5; 2; 9 ]);
  Alcotest.(check (array int)) "stable under renaming" [| 0; 1; 0 |]
    (O.canonicalize [| 7; 3; 7 |] [ 0; 1; 2 ]);
  Alcotest.(check (array int)) "empty" [||] (O.canonicalize [||] [])

let test_canonicalize_permutation_invariant () =
  (* Canonicalization must identify partitions that differ by renaming. *)
  let handles = [ 0; 1; 2; 3 ] in
  let a = O.canonicalize [| 2; 0; 2; 1 |] handles in
  let b = O.canonicalize [| 0; 1; 0; 2 |] handles in
  Alcotest.(check (array int)) "same canonical form" a b

(* View over a whole host graph, for direct oracle tests. *)
let full_view host =
  {
    V.n_total = Graph.n host;
    palette = 3;
    node_count = (fun () -> Graph.n host);
    neighbors = (fun v -> Array.to_list (Graph.neighbors host v));
    iter_neighbors = (fun v f -> Graph.iter_neighbors host v f);
    mem_edge = (fun a b -> Graph.mem_edge host a b);
    id = (fun v -> v + 1);
    output = (fun _ -> None);
    hint = (fun _ -> None);
    target = 0;
    new_nodes = [];
    step = 1;
  }

let test_bipartition_oracle () =
  let host = Graph.path_graph 6 in
  let view = full_view host in
  let parts = O.bipartition.O.query view [ 0; 1; 2; 3 ] in
  Alcotest.(check (array int)) "alternating" [| 0; 1; 0; 1 |] parts;
  Alcotest.check_raises "disconnected set"
    (Invalid_argument "Oracle.bipartition: queried set not connected") (fun () ->
      ignore (O.bipartition.O.query view [ 0; 2 ]))

let test_bipartition_oracle_odd_cycle () =
  let host = Graph.cycle_graph 5 in
  let view = full_view host in
  Alcotest.check_raises "odd cycle"
    (Invalid_argument "Oracle.bipartition: odd cycle in queried set") (fun () ->
      ignore (O.bipartition.O.query view [ 0; 1; 2; 3; 4 ]))

let test_of_canonical_coloring () =
  let coloring = [| 0; 1; 2; 1; 0 |] in
  let o = O.of_canonical_coloring ~parts:3 ~radius:1 ~to_host:(fun h -> h) ~host_coloring:coloring in
  check_int "radius" 1 o.O.radius;
  check_int "parts" 3 o.O.parts;
  let view = full_view (Graph.path_graph 5) in
  (* Host colors at 2,3,4 are 2,1,0 — three distinct parts, renamed in
     handle order. *)
  Alcotest.(check (array int)) "restricted + canonical" [| 0; 1; 2 |]
    (o.O.query view [ 2; 3; 4 ]);
  (* Host colors at 0,3,4 are 0,1,0 — a repeated part keeps its name. *)
  Alcotest.(check (array int)) "repetition" [| 0; 1; 0 |] (o.O.query view [ 0; 3; 4 ])

(* Definition 1.4 checked directly: for random connected fragments of a
   triangular grid, every proper 3-coloring of the 1-radius neighborhood
   restricts to the same partition of the fragment, up to permutation. *)
let canonical_partition raw handles = O.canonicalize (Array.of_list raw) handles

let liuc_check graph ~ell ~parts fragment =
  let ball = Bfs.ball graph fragment ell in
  let emb = Subgraph.induced graph ball in
  let fragment_local = List.map (Subgraph.of_host_exn emb) fragment in
  let witness = ref None in
  let ok = ref true in
  Colorings.Brute.iter_colorings emb.Subgraph.graph ~colors:parts (fun colors ->
      let restricted =
        canonical_partition (List.map (fun v -> colors.(v)) fragment_local) fragment
      in
      match !witness with
      | None -> witness := Some restricted
      | Some w -> if w <> restricted then ok := false);
  (!witness <> None, !ok)

(* The frontier-expansion sampler now lives in Proptest.Domain_gen
   (seeded by the engine's one splittable source); [seed] keeps the
   per-iteration independence the old ad-hoc Random.State gave. *)
let random_connected_fragment graph ~seed ~size =
  Proptest.Gen.generate
    (Proptest.Domain_gen.connected_fragment graph ~size)
    ~size:0
    (Proptest.Rng.of_seed seed)

let test_liuc_triangular_grid () =
  let t = Topology.Tri_grid.create ~side:5 in
  let g = Topology.Tri_grid.graph t in
  for seed = 0 to 7 do
    let fragment = random_connected_fragment g ~seed ~size:5 in
    let nonempty, unique = liuc_check g ~ell:1 ~parts:3 fragment in
    check_bool "colorings exist" true nonempty;
    check_bool "partition unique up to permutation" true unique
  done

let test_liuc_ktree () =
  let kt = Topology.Ktree.random ~k:2 ~n:14 ~seed:3 in
  let g = Topology.Ktree.graph kt in
  for seed = 0 to 5 do
    let fragment = random_connected_fragment g ~seed ~size:4 in
    let nonempty, unique = liuc_check g ~ell:1 ~parts:3 fragment in
    check_bool "colorings exist" true nonempty;
    check_bool "unique partition" true unique
  done

let test_liuc_bipartite_radius_0 () =
  let grid = Topology.Grid2d.create Topology.Grid2d.Simple ~rows:4 ~cols:4 in
  let g = Topology.Grid2d.graph grid in
  for seed = 0 to 5 do
    let fragment = random_connected_fragment g ~seed ~size:5 in
    let nonempty, unique = liuc_check g ~ell:0 ~parts:2 fragment in
    check_bool "colorings exist" true nonempty;
    check_bool "unique partition" true unique
  done

(* A NON-example: the gadget chain G* is k-partite but does NOT admit a
   locally inferable unique coloring — a single gadget's k-coloring is
   not unique up to permutation (row- and column-partitions both work). *)
let test_gadget_chain_not_liuc () =
  let chain = Topology.Gadget.create ~k:3 ~gadgets:3 () in
  let g = Topology.Gadget.graph chain in
  let fragment = Topology.Gadget.gadget_nodes chain 1 in
  let _, unique = liuc_check g ~ell:1 ~parts:3 fragment in
  check_bool "partition NOT unique" false unique

let test_oracles_constructors () =
  let tri = Topology.Tri_grid.create ~side:4 in
  let o = Online_local.Oracles.tri_grid tri ~to_host:(fun h -> h) in
  check_int "tri parts" 3 o.O.parts;
  check_int "tri radius" 1 o.O.radius;
  let kt = Topology.Ktree.random ~k:3 ~n:12 ~seed:0 in
  let ok = Online_local.Oracles.ktree kt ~to_host:(fun h -> h) in
  check_int "ktree parts" 4 ok.O.parts;
  let grid = Topology.Grid2d.create Topology.Grid2d.Simple ~rows:4 ~cols:4 in
  let og = Online_local.Oracles.grid_bipartition grid ~to_host:(fun h -> h) in
  check_int "grid parts" 2 og.O.parts;
  check_int "grid radius" 0 og.O.radius;
  let odd = Topology.Grid2d.create Topology.Grid2d.Cylindrical ~rows:3 ~cols:5 in
  Alcotest.check_raises "odd cylinder rejected"
    (Invalid_argument "Oracles.grid_bipartition: grid not bipartite") (fun () ->
      ignore (Online_local.Oracles.grid_bipartition odd ~to_host:(fun h -> h)))

let test_oracle_through_executor () =
  (* The oracle handed to an algorithm must answer about view handles. *)
  let grid = Topology.Grid2d.create Topology.Grid2d.Simple ~rows:5 ~cols:5 in
  let host = Topology.Grid2d.graph grid in
  let seen_parts = ref None in
  let probe =
    {
      Models.Algorithm.name = "oracle-probe";
      locality = (fun ~n:_ -> 1);
      instantiate =
        (fun ~n:_ ~palette:_ ~oracle ->
          let o = Option.get oracle in
          fun view ->
            let ball = V.ball view view.V.target 1 in
            seen_parts := Some (o.O.query view ball);
            0);
    }
  in
  ignore
    (FH.run
       ~oracle:(Online_local.Oracles.grid_bipartition grid)
       ~host ~palette:3 ~algorithm:probe
       ~order:[ Topology.Grid2d.node grid ~row:2 ~col:2 ]
       ());
  match !seen_parts with
  | None -> Alcotest.fail "oracle never queried"
  | Some parts ->
      check_int "five nodes" 5 (Array.length parts);
      (* center + 4 neighbors: center alone in one part. *)
      let zeros = Array.fold_left (fun acc p -> if p = 0 then acc + 1 else acc) 0 parts in
      check_bool "2 parts split 1/4 or 4/1" true (zeros = 1 || zeros = 4)

(* ------------------ structural triangle-chain oracle ------------------ *)

let test_triangle_chain_matches_canonical () =
  (* On a triangular grid, the structural oracle and the host-coloring
     oracle return the same partition (after canonicalization) for any
     connected query. *)
  let t = Topology.Tri_grid.create ~side:6 in
  let g = Topology.Tri_grid.graph t in
  let view = full_view g in
  let canonical = Online_local.Oracles.tri_grid t ~to_host:(fun h -> h) in
  for seed = 0 to 7 do
    let frag = random_connected_fragment g ~seed ~size:6 in
    let a = Online_local.Oracles.triangle_chain.O.query view frag in
    let b = canonical.O.query view frag in
    Alcotest.(check (array int)) (Printf.sprintf "seed %d" seed) b a
  done

let test_triangle_chain_rejects_triangle_free () =
  let g = Topology.Grid2d.graph (Topology.Grid2d.create Topology.Grid2d.Simple ~rows:4 ~cols:4) in
  let view = full_view g in
  Alcotest.check_raises "no triangles"
    (Invalid_argument "Oracles.triangle_chain: a queried node lies on no triangle")
    (fun () -> ignore (Online_local.Oracles.triangle_chain.O.query view [ 0; 1 ]))

let test_kp1_with_structural_oracle () =
  (* The Theorem 4 algorithm runs on a triangular grid with the purely
     structural oracle — no host coloring involved anywhere. *)
  let t = Topology.Tri_grid.create ~side:16 in
  let host = Topology.Tri_grid.graph t in
  let algo = Online_local.Kp1_coloring.make ~k:3 ~locality:(fun ~n:_ -> 5) () in
  for seed = 0 to 2 do
    let order = FH.orders ~all:host (`Random seed) in
    let outcome =
      FH.run
        ~oracle:(fun ~to_host ->
          ignore to_host;
          Online_local.Oracles.triangle_chain)
        ~host ~palette:4 ~algorithm:algo ~order ()
    in
    check_bool
      (Printf.sprintf "proper with structural oracle, seed %d" seed)
      true
      (Models.Run_stats.succeeded outcome ~colors:4 ~host)
  done

let test_clique_chain_ktree () =
  (* On a k-tree, the structural (k+1)-clique chain recovers the same
     partition as the construction coloring. *)
  List.iter
    (fun k ->
      let kt = Topology.Ktree.random ~k ~n:30 ~seed:(k * 5) in
      let g = Topology.Ktree.graph kt in
      let view = full_view g in
      let structural = Online_local.Oracles.clique_chain ~parts:(k + 1) ~radius:1 in
      let canonical = Online_local.Oracles.ktree kt ~to_host:(fun h -> h) in
      for seed = 0 to 3 do
        let frag = random_connected_fragment g ~seed ~size:5 in
        Alcotest.(check (array int))
          (Printf.sprintf "k=%d seed=%d" k seed)
          (canonical.O.query view frag)
          (structural.O.query view frag)
      done)
    [ 2; 3 ]

let test_kp1_with_clique_chain_on_ktree () =
  let k = 2 in
  let kt = Topology.Ktree.random ~k ~n:150 ~seed:9 in
  let host = Topology.Ktree.graph kt in
  let algo = Online_local.Kp1_coloring.make ~k:(k + 1) ~locality:(fun ~n:_ -> 3) () in
  let order = FH.orders ~all:host (`Random 4) in
  let outcome =
    FH.run
      ~oracle:(fun ~to_host ->
        ignore to_host;
        Online_local.Oracles.clique_chain ~parts:(k + 1) ~radius:1)
      ~host ~palette:(k + 2) ~algorithm:algo ~order ()
  in
  check_bool "proper with structural clique oracle" true
    (Models.Run_stats.succeeded outcome ~colors:(k + 2) ~host)

let test_clique_chain_layered () =
  (* G_k is chained by k-cliques (Claim 5.5): the structural oracle
     agrees with the canonical layered oracle. *)
  let base =
    Topology.Grid2d.graph (Topology.Grid2d.create Topology.Grid2d.Simple ~rows:3 ~cols:3)
  in
  let k = 3 in
  let lay = Topology.Layered.create ~base ~k in
  let g = Topology.Layered.graph lay in
  let view = full_view g in
  let structural = Online_local.Oracles.clique_chain ~parts:k ~radius:k in
  let canonical = Online_local.Oracles.layered lay ~to_host:(fun h -> h) in
  for seed = 0 to 3 do
    let frag = random_connected_fragment g ~seed ~size:6 in
    Alcotest.(check (array int))
      (Printf.sprintf "seed %d" seed)
      (canonical.O.query view frag)
      (structural.O.query view frag)
  done

let () =
  Alcotest.run "oracle"
    [
      ( "canonicalize",
        [
          Alcotest.test_case "basic" `Quick test_canonicalize;
          Alcotest.test_case "permutation invariant" `Quick test_canonicalize_permutation_invariant;
        ] );
      ( "builtin",
        [
          Alcotest.test_case "bipartition" `Quick test_bipartition_oracle;
          Alcotest.test_case "odd cycle rejected" `Quick test_bipartition_oracle_odd_cycle;
          Alcotest.test_case "of_canonical_coloring" `Quick test_of_canonical_coloring;
          Alcotest.test_case "constructors" `Quick test_oracles_constructors;
          Alcotest.test_case "through executor" `Quick test_oracle_through_executor;
        ] );
      ( "triangle-chain",
        [
          Alcotest.test_case "matches canonical" `Quick test_triangle_chain_matches_canonical;
          Alcotest.test_case "rejects triangle-free" `Quick test_triangle_chain_rejects_triangle_free;
          Alcotest.test_case "drives kp1" `Slow test_kp1_with_structural_oracle;
          Alcotest.test_case "clique chain on k-trees" `Quick test_clique_chain_ktree;
          Alcotest.test_case "clique chain drives kp1 on k-trees" `Slow
            test_kp1_with_clique_chain_on_ktree;
          Alcotest.test_case "clique chain on G_k" `Quick test_clique_chain_layered;
        ] );
      ( "liuc (definition 1.4)",
        [
          Alcotest.test_case "triangular grid" `Slow test_liuc_triangular_grid;
          Alcotest.test_case "k-tree" `Slow test_liuc_ktree;
          Alcotest.test_case "bipartite radius 0" `Quick test_liuc_bipartite_radius_0;
          Alcotest.test_case "gadget chain NOT liuc" `Quick test_gadget_chain_not_liuc;
        ] );
    ]
