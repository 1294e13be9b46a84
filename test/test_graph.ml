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

(* The list-and-sort builder that Graph.build replaced, kept as the
   model of its output: per-node cons buckets, [Array.sort compare], a
   consing dedup.  Arcs are checked in list order, so it also pins
   which error a bad list raises. *)
module Ref_build = struct
  let check_endpoint size v =
    if v < 0 || v >= size then
      invalid_arg (Printf.sprintf "Graph: node %d out of range [0,%d)" v size)

  let dedup_sorted a =
    let len = Array.length a in
    if len <= 1 then a
    else begin
      let out = ref [] in
      for i = len - 1 downto 0 do
        if i = 0 || a.(i) <> a.(i - 1) then out := a.(i) :: !out
      done;
      Array.of_list !out
    end

  (* The adjacency rows and the edge count. *)
  let of_arcs size arcs =
    let buckets = Array.make size [] in
    List.iter
      (fun (u, v) ->
        check_endpoint size u;
        check_endpoint size v;
        if u = v then invalid_arg "Graph: self-loop";
        buckets.(u) <- v :: buckets.(u);
        buckets.(v) <- u :: buckets.(v))
      arcs;
    let adj =
      Array.map
        (fun l ->
          let a = Array.of_list l in
          Array.sort compare a;
          dedup_sorted a)
        buckets
    in
    (adj, Array.fold_left (fun acc a -> acc + Array.length a) 0 adj / 2)
end

type arc_case = { nodes : int; arcs : (int * int) list }

let print_arc_case { nodes; arcs } =
  Printf.sprintf "n=%d arcs=%s" nodes
    (String.concat " " (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) arcs))

(* Clean arcs crowd onto hubs 0..2; a third of them come again as
   [(v, u)], a sixth as themselves.  Half the cases add a hub joined to
   every other node in descending order: past 65 nodes that row is
   longer than 64, so it takes the merge sort, while the shorter ones
   take the insertion sort at its worst case.  A third of the cases
   slip in one or two bad arcs (a self-loop, or an endpoint just
   outside the range) at random places; both endpoints of one may be
   outside. *)
let arc_case_gen =
  let open Proptest.Gen in
  sized (fun size ->
      bind (int_range 2 (3 * size)) (fun nodes ->
          let node =
            frequency [ (1, int_range 0 (min 2 (nodes - 1))); (3, int_range 0 (nodes - 1)) ]
          in
          let clean = map2 (fun u d -> (u, (u + d) mod nodes)) node (int_range 1 (nodes - 1)) in
          let outside = frequency [ (1, int_range (-2) (-1)); (1, int_range nodes (nodes + 1)) ] in
          let bad_arc =
            frequency
              [
                (1, map (fun v -> (v, v)) node);
                (1, pair node outside);
                (1, pair outside node);
                (1, pair outside outside);
              ]
          in
          let hub_run =
            frequency
              [
                (1, return []);
                ( 1,
                  map2
                    (fun hub out ->
                      List.filter_map
                        (fun i ->
                          let v = nodes - 1 - i in
                          if v = hub then None else Some (if out then (hub, v) else (v, hub)))
                        (List.init nodes Fun.id))
                    node bool );
              ]
          in
          let bad =
            frequency
              [ (2, return []); (1, list ~min_len:1 ~max_len:2 (pair (int_range 0 1000) bad_arc)) ]
          in
          map3
            (fun arcs hub bad ->
              let again =
                List.concat
                  (List.mapi
                     (fun i (u, v) ->
                       match i mod 6 with 0 | 3 -> [ (v, u) ] | 4 -> [ (u, v) ] | _ -> [])
                     arcs)
              in
              let good = arcs @ hub @ again in
              let arcs =
                List.fold_left
                  (fun acc (pos, arc) ->
                    let pos = pos mod (List.length acc + 1) in
                    List.filteri (fun i _ -> i < pos) acc
                    @ (arc :: List.filteri (fun i _ -> i >= pos) acc))
                  good bad
              in
              { nodes; arcs })
            (list ~max_len:(4 * nodes) clean)
            hub_run bad))

let build_agrees { nodes; arcs } =
  let built =
    match Graph.create ~n:nodes ~edges:arcs with
    | g -> Ok (Array.init nodes (Graph.neighbors g), Graph.m g)
    | exception Invalid_argument m -> Error m
  in
  let model =
    match Ref_build.of_arcs nodes arcs with
    | r -> Ok r
    | exception Invalid_argument m -> Error m
  in
  built = model

let prop_build_model =
  Alcotest.test_case "create matches the list-and-sort model" `Quick (fun () ->
      Proptest.Runner.check_exn ~config ~name:"graph build model" ~print:print_arc_case
        arc_case_gen build_agrees)

(* A star of 300 leaves in descending, ascending and scrambled (7 is
   prime to 300) order, each arc also given from the leaf side. *)
let test_build_hub () =
  let leaves = 300 in
  List.iter
    (fun leaf ->
      let arcs =
        List.concat_map
          (fun i -> [ (0, leaf i); (leaf i, 0) ])
          (List.init leaves Fun.id)
      in
      check_bool "agrees with the model" true
        (build_agrees { nodes = leaves + 1; arcs }))
    [ (fun i -> leaves - i); (fun i -> i + 1); (fun i -> 1 + (i * 7 mod leaves)) ]

(* A generator whose second run passes [second] after the first run's
   one arc 0-1. *)
let changing second =
  let runs = ref 0 in
  fun add ->
    incr runs;
    if !runs = 1 then add 0 1 else second add

let test_build_changed_arcs () =
  List.iter
    (fun (name, second) ->
      Alcotest.check_raises name
        (Invalid_argument "Graph.build: generator changed its arcs") (fun () ->
          ignore (Graph.build ~n:3 (changing second))))
    [
      ("an extra arc", fun add -> add 0 1; add 0 2);
      ("an arc missing", ignore);
      ("another arc", fun add -> add 1 2);
    ]

(* [Graph.edges] digests of the fixed-host generators at small sizes,
   taken from the list-and-sort builder before they moved to
   Graph.build: the hosts are edge for edge what they were. *)
let edges_digest g =
  let b = Buffer.create 1024 in
  Buffer.add_string b (string_of_int (Graph.n g));
  List.iter (fun (u, v) -> Printf.bprintf b " %d-%d" u v) (Graph.edges g);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_host_digests () =
  let open Topology in
  let thm2 = Online_local.Thm2_adversary.variant_host in
  let base = Grid2d.graph (Grid2d.create Grid2d.Simple ~rows:3 ~cols:4) in
  List.iter
    (fun (name, host, digest) -> Alcotest.(check string) name digest (edges_digest (host ())))
    [
      ( "gadget k=3 g=5",
        (fun () -> Gadget.graph (Gadget.create ~k:3 ~gadgets:5 ())),
        "339b9b0256b31463db903005028536ee" );
      ( "gadget k=3 g=5 seam 2",
        (fun () -> Gadget.graph (Gadget.create ~seam:2 ~k:3 ~gadgets:5 ())),
        "98f167512ffe7cd4227edb9eec96599b" );
      ( "gadget k=4 g=4",
        (fun () -> Gadget.graph (Gadget.create ~k:4 ~gadgets:4 ())),
        "ba0daf583495a2095b63f99bb2386ee1" );
      ( "gadget k=4 g=4 seam 1",
        (fun () -> Gadget.graph (Gadget.create ~seam:1 ~k:4 ~gadgets:4 ())),
        "4c55ae1771773b4a2b20bb23af0635c8" );
      ( "variant torus plain",
        (fun () -> thm2 ~wrap:`Toroidal ~side:9 ~reflect:false ~band_lo:3 ~band_hi:6),
        "1451fdf428b79f8e4bfb9aaccceac226" );
      ( "variant torus reflected",
        (fun () -> thm2 ~wrap:`Toroidal ~side:9 ~reflect:true ~band_lo:3 ~band_hi:6),
        "22b758b40c57d21c79f57ae957b56100" );
      ( "variant cylinder plain",
        (fun () -> thm2 ~wrap:`Cylindrical ~side:9 ~reflect:false ~band_lo:3 ~band_hi:6),
        "17fa157b342450ce030be31970d55058" );
      ( "variant cylinder reflected",
        (fun () -> thm2 ~wrap:`Cylindrical ~side:9 ~reflect:true ~band_lo:3 ~band_hi:6),
        "8e0d930ab213b85dc70029c4b89acc29" );
      ( "variant rect torus 10x7 reflected",
        (fun () ->
          Online_local.Thm2_adversary.variant_host_rect ~wrap:`Toroidal ~rows:10 ~cols:7
            ~reflect:true ~band_lo:2 ~band_hi:6),
        "7d71853c44a7063e447ba4d447cf4268" );
      ( "grid2d simple 5x7",
        (fun () -> Grid2d.graph (Grid2d.create Grid2d.Simple ~rows:5 ~cols:7)),
        "ddd3d74806035dfe522e188fa6daf7ab" );
      ( "grid2d cylindrical 5x7",
        (fun () -> Grid2d.graph (Grid2d.create Grid2d.Cylindrical ~rows:5 ~cols:7)),
        "856ef752d94502fdb5323520bdb7f805" );
      ( "grid2d toroidal 5x7",
        (fun () -> Grid2d.graph (Grid2d.create Grid2d.Toroidal ~rows:5 ~cols:7)),
        "942be63e2003a47d45f0d4f7d174dd79" );
      ( "layered k=3 on 3x4",
        (fun () -> Layered.graph (Layered.create ~base ~k:3)),
        "b05ce691af79c02f4619c3222e9c9b72" );
      ( "layered k=4 on 3x4",
        (fun () -> Layered.graph (Layered.create ~base ~k:4)),
        "282b57ffeff7ff68041442986b1fbb24" );
    ]

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
      ( "graph-build",
        [
          prop_build_model;
          Alcotest.test_case "hub rows in three orders" `Quick test_build_hub;
          Alcotest.test_case "changed arcs rejected" `Quick test_build_changed_arcs;
          Alcotest.test_case "host digests pinned" `Quick test_host_digests;
        ] );
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
