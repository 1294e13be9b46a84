open Grid_graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_empty () =
  let g = Graph.empty 5 in
  check_int "n" 5 (Graph.n g);
  check_int "m" 0 (Graph.m g);
  check_int "max_degree" 0 (Graph.max_degree g)

let test_create_dedups () =
  let g = Graph.create ~n:3 ~edges:[ (0, 1); (1, 0); (0, 1); (1, 2) ] in
  check_int "m" 2 (Graph.m g);
  check_bool "edge 0-1" true (Graph.mem_edge g 0 1);
  check_bool "edge 1-0" true (Graph.mem_edge g 1 0);
  check_bool "no edge 0-2" false (Graph.mem_edge g 0 2)

let test_self_loop_rejected () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph: self-loop") (fun () ->
      ignore (Graph.create ~n:2 ~edges:[ (1, 1) ]))

let test_out_of_range_rejected () =
  Alcotest.check_raises "range" (Invalid_argument "Graph: node 5 out of range [0,3)")
    (fun () -> ignore (Graph.create ~n:3 ~edges:[ (0, 5) ]))

let test_complete () =
  let g = Graph.complete 6 in
  check_int "m" 15 (Graph.m g);
  check_int "degree" 5 (Graph.degree g 3);
  check_bool "clique" true (Graph.is_clique g [ 0; 1; 2; 3; 4; 5 ])

let test_path_cycle () =
  let p = Graph.path_graph 5 in
  check_int "path m" 4 (Graph.m p);
  check_int "endpoint degree" 1 (Graph.degree p 0);
  let c = Graph.cycle_graph 5 in
  check_int "cycle m" 5 (Graph.m c);
  check_bool "wrap edge" true (Graph.mem_edge c 0 4);
  Alcotest.check_raises "small cycle"
    (Invalid_argument "Graph.cycle_graph: need at least 3 nodes") (fun () ->
      ignore (Graph.cycle_graph 2))

let test_neighbors_sorted () =
  let g = Graph.create ~n:5 ~edges:[ (2, 4); (2, 0); (2, 3); (2, 1) ] in
  Alcotest.(check (array int)) "sorted" [| 0; 1; 3; 4 |] (Graph.neighbors g 2)

let test_iter_edges_each_once () =
  let g = Graph.complete 5 in
  let count = ref 0 in
  Graph.iter_edges g (fun u v ->
      incr count;
      check_bool "ordered" true (u < v));
  check_int "edge count" 10 !count

let test_union_disjoint () =
  let g = Graph.union_disjoint (Graph.path_graph 3) (Graph.cycle_graph 3) in
  check_int "n" 6 (Graph.n g);
  check_int "m" 5 (Graph.m g);
  check_bool "no cross edge" false (Graph.mem_edge g 2 3);
  check_bool "shifted edge" true (Graph.mem_edge g 3 4)

let test_add_edges () =
  let g = Graph.add_edges (Graph.empty 4) [ (0, 1); (2, 3) ] in
  check_int "m" 2 (Graph.m g);
  let g' = Graph.add_edges g [ (0, 1); (1, 2) ] in
  check_int "m after dup add" 3 (Graph.m g')

let test_equal () =
  let g1 = Graph.create ~n:3 ~edges:[ (0, 1); (1, 2) ] in
  let g2 = Graph.create ~n:3 ~edges:[ (1, 2); (0, 1) ] in
  let g3 = Graph.create ~n:3 ~edges:[ (0, 2); (1, 2) ] in
  check_bool "equal" true (Graph.equal g1 g2);
  check_bool "not equal" false (Graph.equal g1 g3)

let test_of_adjacency () =
  let g = Graph.of_adjacency [| [| 1 |]; [||]; [| 1 |] |] in
  check_bool "symmetrized" true (Graph.mem_edge g 1 0);
  check_int "m" 2 (Graph.m g)

let test_is_clique () =
  let g = Graph.create ~n:4 ~edges:[ (0, 1); (1, 2); (0, 2); (0, 3) ] in
  check_bool "triangle" true (Graph.is_clique g [ 0; 1; 2 ]);
  check_bool "not clique" false (Graph.is_clique g [ 0; 1; 3 ]);
  check_bool "edge is clique" true (Graph.is_clique g [ 0; 3 ]);
  check_bool "singleton" true (Graph.is_clique g [ 2 ])

(* Random graph generator for property tests; a failing graph shrinks
   by dropping edges and regenerating at smaller node counts. *)
let random_graph_gen : Graph.t Proptest.Gen.t =
  let open Proptest.Gen in
  bind (int_range 1 40) (fun n ->
      bind (int_range 0 (n * 3)) (fun m ->
          let endpoint = int_range 0 (n - 1) in
          map
            (fun pairs ->
              let edges = List.filter (fun (u, v) -> u <> v) pairs in
              Graph.create ~n ~edges)
            (list_size m (pair endpoint endpoint))))

let config = { Proptest.Runner.default_config with seed = 0x9AF; cases = 200 }

let prop name p =
  Alcotest.test_case name `Quick (fun () ->
      Proptest.Runner.check_exn ~config ~name
        ~print:Proptest.Domain_gen.print_graph random_graph_gen p)

let prop_degree_sum =
  prop "sum of degrees = 2m" (fun g ->
      let sum = Graph.fold_nodes g ~init:0 ~f:(fun acc v -> acc + Graph.degree g v) in
      sum = 2 * Graph.m g)

let prop_mem_edge_symmetric =
  prop "mem_edge symmetric" (fun g ->
      Graph.fold_nodes g ~init:true ~f:(fun acc u ->
          acc
          && Array.for_all
               (fun v -> Graph.mem_edge g u v && Graph.mem_edge g v u)
               (Graph.neighbors g u)))

let prop_edges_roundtrip =
  prop "create (edges g) = g" (fun g ->
      Graph.equal g (Graph.create ~n:(Graph.n g) ~edges:(Graph.edges g)))

let prop_max_degree =
  prop "max_degree is the max" (fun g ->
      let manual = Graph.fold_nodes g ~init:0 ~f:(fun acc v -> max acc (Graph.degree g v)) in
      manual = Graph.max_degree g)

let test_union_find () =
  let uf = Union_find.create 6 in
  Alcotest.(check int) "initial count" 6 (Union_find.count uf);
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 0 3);
  check_bool "same" true (Union_find.same uf 1 2);
  check_bool "different" false (Union_find.same uf 1 4);
  check_int "size" 4 (Union_find.size uf 1);
  check_int "count" 3 (Union_find.count uf);
  ignore (Union_find.union uf 1 2);
  check_int "idempotent count" 3 (Union_find.count uf)

let test_uf_dyn () =
  let uf = Online_local.Uf_dyn.create () in
  Online_local.Uf_dyn.ensure uf 10;
  ignore (Online_local.Uf_dyn.union uf 3 7);
  Online_local.Uf_dyn.ensure uf 100;
  ignore (Online_local.Uf_dyn.union uf 7 99);
  check_bool "same across growth" true (Online_local.Uf_dyn.same uf 3 99);
  check_int "size" 3 (Online_local.Uf_dyn.size uf 99);
  check_bool "isolated" false (Online_local.Uf_dyn.same uf 0 3)

let test_dyn_graph () =
  let d = Dyn_graph.create () in
  let a = Dyn_graph.add_node d in
  let b = Dyn_graph.add_node d in
  let c = Dyn_graph.add_node d in
  Dyn_graph.add_edge d a b;
  Dyn_graph.add_edge d b c;
  Dyn_graph.add_edge d a b;
  check_int "n" 3 (Dyn_graph.n d);
  check_bool "edge" true (Dyn_graph.mem_edge d b a);
  check_int "neighbors of b" 2 (List.length (Dyn_graph.neighbors d b));
  let s = Dyn_graph.snapshot d in
  check_int "snapshot m" 2 (Graph.m s);
  Alcotest.check_raises "loop" (Invalid_argument "Dyn_graph: self-loop") (fun () ->
      Dyn_graph.add_edge d a a)

let test_dyn_graph_growth () =
  let d = Dyn_graph.create () in
  for _ = 1 to 100 do
    ignore (Dyn_graph.add_node d)
  done;
  for i = 0 to 98 do
    Dyn_graph.add_edge d i (i + 1)
  done;
  check_int "n" 100 (Dyn_graph.n d);
  check_int "snapshot m" 99 (Graph.m (Dyn_graph.snapshot d))

(* The model that defines Dyn_graph's neighbor order (dyn_graph.mli):
   one [(int, unit) Hashtbl.t] per node, read by a consing fold. *)
module Ref_dyn = struct
  type t = { mutable adj : (int, unit) Hashtbl.t array; mutable size : int }

  let create () = { adj = [||]; size = 0 }

  let add_node g =
    if g.size = Array.length g.adj then
      g.adj <- Array.append g.adj (Array.init (g.size + 1) (fun _ -> Hashtbl.create 4));
    g.size <- g.size + 1;
    g.size - 1

  let check g v = if v < 0 || v >= g.size then invalid_arg "Dyn_graph: unknown handle"

  let add_edge g u v =
    check g u;
    check g v;
    if u = v then invalid_arg "Dyn_graph: self-loop";
    Hashtbl.replace g.adj.(u) v ();
    Hashtbl.replace g.adj.(v) u ()

  let mem_edge g u v =
    check g u;
    check g v;
    Hashtbl.mem g.adj.(u) v

  let neighbors g v =
    check g v;
    Hashtbl.fold (fun w () acc -> w :: acc) g.adj.(v) []

  let snapshot g =
    let acc = ref [] in
    for u = 0 to g.size - 1 do
      Hashtbl.iter (fun v () -> if u < v then acc := (u, v) :: !acc) g.adj.(u)
    done;
    Graph.create ~n:g.size ~edges:!acc
end

type dyn_op = Add_node | Add_edge of int * int

let print_ops ops =
  String.concat " "
    (List.map
       (function Add_node -> "N" | Add_edge (u, v) -> Printf.sprintf "%d-%d" u v)
       ops)

(* A first batch of nodes, then nodes and edges mixed.  Hubs 0..2
   collect a third of the endpoints, so the larger cases take a node
   past degree 64 (two bucket doublings); handles just outside the
   allocated range and self-loops exercise the errors. *)
let dyn_ops_gen =
  let open Proptest.Gen in
  sized (fun size ->
      let top = 4 * size in
      let handle =
        frequency [ (1, int_range 0 2); (2, int_range 0 top); (1, int_range (-2) (top + 4)) ]
      in
      let op =
        frequency
          [ (1, return Add_node); (6, map2 (fun u v -> Add_edge (u, v)) handle handle) ]
      in
      map2
        (fun first ops -> List.init first (fun _ -> Add_node) @ ops)
        (int_range 1 (3 * size))
        (list ~max_len:(24 * size) op))

let outcome f = match f () with x -> Ok x | exception Invalid_argument m -> Error m

(* Play [ops] on both graphs; every result, exception, neighbor list,
   adjacency answer and snapshot must agree. *)
let dyn_agrees ops =
  let d = Dyn_graph.create () and r = Ref_dyn.create () in
  let same_neighbors v = Dyn_graph.neighbors d v = Ref_dyn.neighbors r v in
  List.for_all
    (function
      | Add_node -> Dyn_graph.add_node d = Ref_dyn.add_node r
      | Add_edge (u, v) ->
          outcome (fun () -> Dyn_graph.add_edge d u v)
          = outcome (fun () -> Ref_dyn.add_edge r u v)
          && (u < 0 || u >= Dyn_graph.n d || same_neighbors u))
    ops
  && Dyn_graph.n d = r.Ref_dyn.size
  && List.for_all same_neighbors (List.init (Dyn_graph.n d) Fun.id)
  && Graph.edges (Dyn_graph.snapshot d) = Graph.edges (Ref_dyn.snapshot r)
  &&
  let probe = List.init (Dyn_graph.n d + 2) (fun i -> i - 1) in
  List.for_all
    (fun u ->
      List.for_all
        (fun v ->
          outcome (fun () -> Dyn_graph.mem_edge d u v)
          = outcome (fun () -> Ref_dyn.mem_edge r u v))
        probe)
    probe

let prop_dyn_model =
  Alcotest.test_case "matches per-node Hashtbl model" `Quick (fun () ->
      Proptest.Runner.check_exn ~config ~name:"dyn graph model" ~print:print_ops
        dyn_ops_gen dyn_agrees)

(* A star of 150 leaves, attached in a scrambled order (67 is prime to
   150), so the hub passes three bucket doublings; every edge is added
   again from the leaf side. *)
let test_dyn_hub_order () =
  let leaves = 150 in
  let ops =
    List.init (leaves + 1) (fun _ -> Add_node)
    @ List.concat_map
        (fun i ->
          let leaf = 1 + (i * 67 mod leaves) in
          [ Add_edge (0, leaf); Add_edge (leaf, 0) ])
        (List.init leaves Fun.id)
  in
  check_bool "agrees with the model" true (dyn_agrees ops)

let () =
  Alcotest.run "grid_graph"
    [
      ( "graph",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "create dedups" `Quick test_create_dedups;
          Alcotest.test_case "self loop rejected" `Quick test_self_loop_rejected;
          Alcotest.test_case "out of range rejected" `Quick test_out_of_range_rejected;
          Alcotest.test_case "complete" `Quick test_complete;
          Alcotest.test_case "path and cycle" `Quick test_path_cycle;
          Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
          Alcotest.test_case "iter_edges once" `Quick test_iter_edges_each_once;
          Alcotest.test_case "union_disjoint" `Quick test_union_disjoint;
          Alcotest.test_case "add_edges" `Quick test_add_edges;
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "of_adjacency" `Quick test_of_adjacency;
          Alcotest.test_case "is_clique" `Quick test_is_clique;
        ] );
      ( "graph-properties",
        [ prop_degree_sum; prop_mem_edge_symmetric; prop_edges_roundtrip; prop_max_degree ] );
      ( "union-find",
        [
          Alcotest.test_case "union find" `Quick test_union_find;
          Alcotest.test_case "uf_dyn" `Quick test_uf_dyn;
        ] );
      ( "dyn-graph",
        [
          Alcotest.test_case "dyn graph" `Quick test_dyn_graph;
          Alcotest.test_case "dyn graph growth" `Quick test_dyn_graph_growth;
          Alcotest.test_case "hub order past three doublings" `Quick test_dyn_hub_order;
          prop_dyn_model;
        ] );
    ]
