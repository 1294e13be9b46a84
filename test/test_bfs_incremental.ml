(* The incremental executor substrate: Bfs.Frontier against the batch
   Bfs.ball reference, and the packed-coordinate containers against
   their stdlib references.  The frontier's byte-identity contract
   (same lists, same order as ball-and-filter) is what keeps the
   executor rewrite invisible to goldens, traces and sweeps — so it is
   pinned here both on hand-built cases and under a seeded property
   run. *)

open Grid_graph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_nodes = Alcotest.(check (list int))

(* ------------------------- Packed.Coord -------------------------- *)

let test_coord_roundtrip () =
  List.iter
    (fun (r, c) ->
      let k = Packed.Coord.pack r c in
      check_int "row" r (Packed.Coord.row k);
      check_int "col" c (Packed.Coord.col k))
    [
      (0, 0);
      (1, 0);
      (0, 1);
      (-1, 0);
      (0, -1);
      (-7, 13);
      (13, -7);
      ((1 lsl 29) - 1, (1 lsl 29) - 1);
      (-(1 lsl 29) + 1, -(1 lsl 29) + 1);
    ]

let test_coord_steps () =
  let k = Packed.Coord.pack 5 (-3) in
  check_bool "north" true (Packed.Coord.north k = Packed.Coord.pack 4 (-3));
  check_bool "south" true (Packed.Coord.south k = Packed.Coord.pack 6 (-3));
  check_bool "west" true (Packed.Coord.west k = Packed.Coord.pack 5 (-4));
  check_bool "east" true (Packed.Coord.east k = Packed.Coord.pack 5 (-2));
  check_bool "row_step" true
    (k + Packed.Coord.row_step = Packed.Coord.pack 6 (-3))

let test_coord_order_is_lexicographic () =
  let coords = [ (0, 0); (0, 1); (0, -1); (1, 0); (-1, 5); (2, -9); (2, 4) ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check_bool "pack order = coord order" true
            (compare (Packed.Coord.pack (fst a) (snd a))
               (Packed.Coord.pack (fst b) (snd b))
            = compare a b))
        coords)
    coords

let test_coord_range () =
  let lim = 1 lsl 29 in
  check_bool "in range" true (Packed.Coord.in_range (lim - 1) (-lim + 1));
  check_bool "row out" false (Packed.Coord.in_range lim 0);
  check_bool "col out" false (Packed.Coord.in_range 0 (-lim))

(* -------------------------- Packed.Box --------------------------- *)

(* Every binding of [b], in [iter] order. *)
let box_bindings b =
  let acc = ref [] in
  Packed.Box.iter b ~f:(fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

let test_box_basics () =
  let b = Packed.Box.create () in
  let key = Packed.Coord.pack in
  check_int "empty finds nothing" (-1) (Packed.Box.find b (key 0 0));
  check_int "empty visits nothing" 0 (List.length (box_bindings b));
  (* the first cell, then growth toward each of the four directions,
     into negative coordinates *)
  let cells =
    [ ((0, 0), 1); ((-5, 0), 2); ((7, 0), 3); ((0, -9), 4); ((0, 11), 5);
      ((-20, -20), 6); ((20, 20), 7); ((-3, 4), 8) ]
  in
  List.iter (fun ((r, c), v) -> Packed.Box.set b (key r c) v) cells;
  List.iter
    (fun ((r, c), v) ->
      check_int (Printf.sprintf "find (%d,%d)" r c) v (Packed.Box.find b (key r c)))
    cells;
  check_int "unset inside" (-1) (Packed.Box.find b (key 1 1));
  check_int "outside north" (-1) (Packed.Box.find b (key (-500) 0));
  check_int "outside east" (-1) (Packed.Box.find b (key 0 500));
  Packed.Box.set b (key 0 0) 99;
  check_int "replace" 99 (Packed.Box.find b (key 0 0));
  Packed.Box.cover b (key (-40) (-3)) (key 2 60);
  check_int "cover keeps bindings" 7 (Packed.Box.find b (key 20 20));
  let visited = box_bindings b in
  check_int "one visit per binding" (List.length cells) (List.length visited);
  check_bool "row-major = ascending keys" true
    (List.sort compare visited = visited);
  check_int "visit sees the replaced value" 99 (List.assoc (key 0 0) visited)

(* -------------------------- Packed.Set --------------------------- *)

let test_set_basics () =
  let s = Packed.Set.create 10 in
  check_int "empty" 0 (Packed.Set.cardinal s);
  Packed.Set.add s 3;
  Packed.Set.add s 9;
  Packed.Set.add s 3;
  check_int "dedup cardinal" 2 (Packed.Set.cardinal s);
  check_bool "mem" true (Packed.Set.mem s 9);
  check_bool "not mem" false (Packed.Set.mem s 0)

(* ------------------------- Bfs.Frontier -------------------------- *)

let test_frontier_ball_matches_batch () =
  let g = Graph.path_graph 10 in
  let f = Bfs.Frontier.create g in
  List.iter
    (fun (c, r) ->
      check_nodes
        (Printf.sprintf "ball c=%d r=%d" c r)
        (Bfs.ball g [ c ] r)
        (Bfs.Frontier.ball f c r))
    [ (4, 2); (4, 0); (0, 3); (9, 100); (5, 1) ];
  (* ball must not reveal *)
  check_bool "ball reveals nothing" false (Bfs.Frontier.revealed f 4)

let test_frontier_reveal_basics () =
  let grid = Topology.Grid2d.create Topology.Grid2d.Simple ~rows:7 ~cols:7 in
  let g = Topology.Grid2d.graph grid in
  let f = Bfs.Frontier.create g in
  let center = Topology.Grid2d.node grid ~row:3 ~col:3 in
  let fresh1 = Bfs.Frontier.reveal f center 2 in
  check_nodes "first reveal = ball" (Bfs.ball g [ center ] 2) fresh1;
  check_nodes "re-reveal is empty" [] (Bfs.Frontier.reveal f center 2);
  check_nodes "smaller re-reveal is empty" []
    (Bfs.Frontier.reveal f center 1);
  (* growing the radius yields exactly the new shell *)
  let shell = Bfs.Frontier.reveal f center 3 in
  let ball3 = Bfs.ball g [ center ] 3 in
  check_nodes "shell = ball3 - ball2"
    (List.filter (fun v -> not (List.mem v fresh1)) ball3)
    shell;
  List.iter
    (fun v -> check_bool "revealed" true (Bfs.Frontier.revealed f v))
    ball3;
  let outside = Topology.Grid2d.node grid ~row:0 ~col:0 in
  check_bool "outside unrevealed" false (Bfs.Frontier.revealed f outside)

let test_frontier_disconnected () =
  let g = Graph.create ~n:5 ~edges:[ (0, 1); (2, 3) ] in
  let f = Bfs.Frontier.create g in
  check_nodes "component only" [ 0; 1 ] (Bfs.Frontier.reveal f 0 10);
  check_nodes "other component" [ 2; 3 ] (Bfs.Frontier.reveal f 3 10);
  check_bool "isolated unrevealed" false (Bfs.Frontier.revealed f 4)

(* ----------------------- seeded properties ----------------------- *)

let config = { Proptest.Runner.default_config with seed = 0xF40; cases = 60 }

let prop name gen print p =
  Alcotest.test_case name `Quick (fun () ->
      Proptest.Runner.check_exn ~config ~name ~print gen p)

module Gen = Proptest.Gen

(* a grid plus a sequence of (center, radius) operations on it *)
let grid_ops_gen =
  Gen.bind (Proptest.Domain_gen.simple_grid ~rows:(2, 8) ~cols:(2, 8))
    (fun grid ->
      let g = Topology.Grid2d.graph grid in
      Gen.map
        (fun ops -> (g, ops))
        (Gen.list ~min_len:1 ~max_len:12
           (Gen.pair (Gen.int_range 0 (Graph.n g - 1)) (Gen.int_range 0 6))))

let print_grid_ops (g, ops) =
  Printf.sprintf "n=%d ops=[%s]" (Graph.n g)
    (String.concat ";"
       (List.map (fun (c, r) -> Printf.sprintf "%d@%d" c r) ops))

let prop_frontier_ball =
  prop "Frontier.ball = Bfs.ball (order included)" grid_ops_gen print_grid_ops
    (fun (g, ops) ->
      let f = Bfs.Frontier.create g in
      List.for_all (fun (c, r) -> Bfs.Frontier.ball f c r = Bfs.ball g [ c ] r) ops)

let prop_frontier_reveal =
  prop "Frontier.reveal = ball-and-filter reference" grid_ops_gen
    print_grid_ops (fun (g, ops) ->
      let f = Bfs.Frontier.create g in
      let seen = Hashtbl.create 64 in
      List.for_all
        (fun (c, r) ->
          let expect =
            List.filter (fun v -> not (Hashtbl.mem seen v)) (Bfs.ball g [ c ] r)
          in
          List.iter (fun v -> Hashtbl.replace seen v ()) expect;
          Bfs.Frontier.reveal f c r = expect
          && Graph.fold_nodes g ~init:true ~f:(fun acc v ->
                 acc && Bfs.Frontier.revealed f v = Hashtbl.mem seen v))
        ops)

(* cells in a window around the origin, negative coordinates included;
   [None] sets nothing and covers a random range instead *)
let box_ops_gen =
  let coord = Gen.int_range (-40) 40 in
  Gen.list ~max_len:60
    (Gen.pair (Gen.pair coord coord)
       (Gen.frequency
          [ (6, Gen.map Option.some (Gen.int_range 0 1000)); (1, Gen.return None) ]))

let print_box_ops ops =
  String.concat ";"
    (List.map
       (fun ((r, c), v) ->
         match v with
         | Some v -> Printf.sprintf "(%d,%d):%d" r c v
         | None -> Printf.sprintf "cover(%d,%d)" r c)
       ops)

let prop_box_vs_hashtbl =
  prop "Packed.Box = Hashtbl reference" box_ops_gen print_box_ops (fun ops ->
      let key = Packed.Coord.pack in
      let b = Packed.Box.create () in
      let h = Hashtbl.create 16 in
      List.iter
        (fun ((r, c), v) ->
          match v with
          | Some v ->
              Packed.Box.set b (key r c) v;
              Hashtbl.replace h (key r c) v
          | None ->
              Packed.Box.cover b (key (min r c) (min r c)) (key (max r c) (max r c)))
        ops;
      let window = ref true in
      for r = -42 to 42 do
        for c = -42 to 42 do
          let expect = Option.value (Hashtbl.find_opt h (key r c)) ~default:(-1) in
          if Packed.Box.find b (key r c) <> expect then window := false
        done
      done;
      let visited = box_bindings b in
      !window
      && List.length visited = Hashtbl.length h
      && List.for_all (fun (k, v) -> Hashtbl.find_opt h k = Some v) visited
      && List.sort_uniq compare (List.map fst visited) = List.map fst visited)

let set_ops_gen =
  Gen.bind (Gen.int_range 1 60) (fun n ->
      Gen.map
        (fun xs -> (n, xs))
        (Gen.list ~max_len:40 (Gen.int_range 0 (n - 1))))

let print_set_ops (n, xs) =
  Printf.sprintf "n=%d add=[%s]" n
    (String.concat ";" (List.map string_of_int xs))

let prop_set_vs_reference =
  prop "Packed.Set = reference" set_ops_gen print_set_ops (fun (n, xs) ->
      let s = Packed.Set.create n in
      let seen = Hashtbl.create 16 in
      List.iter
        (fun x ->
          Packed.Set.add s x;
          Hashtbl.replace seen x ())
        xs;
      Packed.Set.cardinal s = Hashtbl.length seen
      && List.for_all
           (fun x -> Packed.Set.mem s x = Hashtbl.mem seen x)
           (List.init n Fun.id))

let coord_gen =
  let extent = (1 lsl 29) - 2 in
  Gen.pair (Gen.int_range (-extent) extent) (Gen.int_range (-extent) extent)

let prop_coord_roundtrip =
  prop "Coord roundtrip over the full range"
    (Gen.pair coord_gen coord_gen)
    (fun ((r1, c1), (r2, c2)) ->
      Printf.sprintf "(%d,%d) (%d,%d)" r1 c1 r2 c2)
    (fun ((r1, c1), (r2, c2)) ->
      Packed.Coord.row (Packed.Coord.pack r1 c1) = r1
      && Packed.Coord.col (Packed.Coord.pack r1 c1) = c1
      && compare (Packed.Coord.pack r1 c1) (Packed.Coord.pack r2 c2)
         = compare (r1, c1) (r2, c2))

let () =
  Alcotest.run "bfs-incremental"
    [
      ( "packed-coord",
        [
          Alcotest.test_case "roundtrip" `Quick test_coord_roundtrip;
          Alcotest.test_case "neighbor steps" `Quick test_coord_steps;
          Alcotest.test_case "lexicographic" `Quick test_coord_order_is_lexicographic;
          Alcotest.test_case "range checks" `Quick test_coord_range;
        ] );
      ( "packed-containers",
        [
          Alcotest.test_case "box basics" `Quick test_box_basics;
          Alcotest.test_case "set basics" `Quick test_set_basics;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "ball matches batch" `Quick test_frontier_ball_matches_batch;
          Alcotest.test_case "reveal basics" `Quick test_frontier_reveal_basics;
          Alcotest.test_case "disconnected" `Quick test_frontier_disconnected;
        ] );
      ( "properties",
        [
          prop_frontier_ball;
          prop_frontier_reveal;
          prop_box_vs_hashtbl;
          prop_set_vs_reference;
          prop_coord_roundtrip;
        ] );
    ]
