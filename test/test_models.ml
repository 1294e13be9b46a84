open Grid_graph
module A = Models.Algorithm
module V = Models.View
module FH = Models.Fixed_host
module RS = Models.Run_stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let grid rows cols = Topology.Grid2d.create Topology.Grid2d.Simple ~rows ~cols

(* An algorithm that records what it sees, for auditing the executor. *)
let spy seen =
  A.stateless ~name:"spy" ~locality:(fun ~n:_ -> 2) (fun view ->
      seen := view.V.new_nodes :: !seen;
      0)

let test_reveal_is_union_of_balls () =
  let g2 = grid 7 7 in
  let host = Topology.Grid2d.graph g2 in
  let t = FH.start ~host ~palette:3 ~algorithm:A.greedy_first_fit () in
  let v1 = Topology.Grid2d.node g2 ~row:3 ~col:3 in
  ignore (FH.present t v1);
  let revealed = FH.revealed_host_nodes t in
  let expected = Bfs.ball host [ v1 ] 1 in
  Alcotest.(check (list int)) "first ball" expected (List.sort compare revealed);
  let v2 = Topology.Grid2d.node g2 ~row:0 ~col:0 in
  ignore (FH.present t v2);
  let expected2 = List.sort_uniq compare (expected @ Bfs.ball host [ v2 ] 1) in
  Alcotest.(check (list int)) "union of balls" expected2
    (List.sort compare (FH.revealed_host_nodes t))

let test_view_is_induced_subgraph () =
  let g2 = grid 6 6 in
  let host = Topology.Grid2d.graph g2 in
  let captured = ref None in
  let capture =
    A.stateless ~name:"capture" ~locality:(fun ~n:_ -> 2) (fun view ->
        captured := Some (V.snapshot_graph view);
        0)
  in
  let t = FH.start ~host ~palette:3 ~algorithm:capture () in
  ignore (FH.present t (Topology.Grid2d.node g2 ~row:2 ~col:2));
  ignore (FH.present t (Topology.Grid2d.node g2 ~row:2 ~col:3));
  match !captured with
  | None -> Alcotest.fail "no view captured"
  | Some snap ->
      (* The snapshot must be isomorphic to the induced subgraph on the
         revealed host nodes — and with our handle order, equal up to the
         executor's to_host relabeling. *)
      let revealed = FH.revealed_host_nodes t in
      let emb = Subgraph.induced host revealed in
      check_int "same node count" (Graph.n emb.Subgraph.graph) (Graph.n snap);
      check_int "same edge count" (Graph.m emb.Subgraph.graph) (Graph.m snap)

let test_presented_twice_rejected () =
  let host = Graph.path_graph 5 in
  let t = FH.start ~host ~palette:3 ~algorithm:A.greedy_first_fit () in
  ignore (FH.present t 2);
  Alcotest.check_raises "double present"
    (RS.Dishonest_transcript "Fixed_host.present: node 2 presented twice") (fun () ->
      ignore (FH.present t 2))

let test_palette_overflow_certificate () =
  let bad = A.stateless ~name:"bad" ~locality:(fun ~n:_ -> 1) (fun _ -> 99) in
  let host = Graph.path_graph 3 in
  let outcome = FH.run ~host ~palette:3 ~algorithm:bad ~order:[ 0; 1; 2 ] () in
  (match outcome.RS.violation with
  | Some (RS.Palette_overflow { color = 99; _ }) -> ()
  | _ -> Alcotest.fail "expected palette overflow");
  check_bool "not succeeded" false (RS.succeeded outcome ~colors:3 ~host)

let test_greedy_succeeds_on_path () =
  let host = Graph.path_graph 20 in
  let outcome =
    FH.run ~host ~palette:2 ~algorithm:A.greedy_first_fit
      ~order:(FH.orders ~all:host `Sequential) ()
  in
  check_bool "greedy 2-colors a path sequentially" true
    (RS.succeeded outcome ~colors:2 ~host)

let test_greedy_can_fail_on_adversarial_order () =
  (* Classic: color both ends of each odd-even pair first. *)
  let host = Graph.path_graph 6 in
  (* Present 0,3 far apart (T=1 balls disjoint)... greedy colors both 0;
     then 1,4 get 1; then 2 adjacent to 1(=1) and 3(=0) -> stuck with
     palette 2. *)
  let outcome =
    FH.run ~host ~palette:2 ~algorithm:A.greedy_first_fit ~order:[ 0; 3; 1; 4; 2; 5 ] ()
  in
  check_bool "violated" true (outcome.RS.violation <> None)

let test_ids_and_hints_plumbing () =
  let host = Graph.path_graph 3 in
  let got_ids = ref [] and got_hint = ref None in
  let probe =
    A.stateless ~name:"probe" ~locality:(fun ~n:_ -> 1) (fun view ->
        got_ids := view.V.id view.V.target :: !got_ids;
        got_hint := view.V.hint view.V.target;
        0)
  in
  let outcome =
    FH.run
      ~hints:(fun v -> Some (V.Layer_pos { layer = v }))
      ~host ~palette:3 ~algorithm:probe ~order:[ 1 ] ()
  in
  ignore outcome;
  check_bool "custom hint" true (!got_hint = Some (V.Layer_pos { layer = 1 }));
  (* The one identifier scheme, host node + 1, which id-stripes and
     Local_model.grid_stripes decode: node 1 is id 2.  Presenting node 2
     first gives it handle 1 and node 0 handle 2, so ids by handle would
     read [2; 3] here. *)
  check_int "node 1's id" 2 (List.hd !got_ids);
  got_ids := [];
  ignore (FH.run ~host ~palette:3 ~algorithm:probe ~order:[ 2; 0 ] ());
  Alcotest.(check (list int)) "ids are host node + 1" [ 3; 1 ] (List.rev !got_ids)

let test_spy_sees_monotone_reveals () =
  let g2 = grid 8 8 in
  let host = Topology.Grid2d.graph g2 in
  let seen = ref [] in
  let order = FH.orders ~all:host (`Random 13) in
  ignore (FH.run ~host ~palette:3 ~algorithm:(spy seen) ~order ());
  (* New handles must be strictly increasing across steps. *)
  let all = List.concat (List.rev !seen) in
  let sorted = List.sort compare all in
  check_bool "handles unique" true (List.length (List.sort_uniq compare all) = List.length all);
  check_bool "allocation order" true (all = sorted)

(* ------------------- neighbor order, differentially ------------------- *)

(* The executor's region wiring from when each reveal wired its step at
   once, kept verbatim as the reference for the region it now wires on
   the first [neighbors] call: each reveal copies the induced edges into
   a [Dyn_graph] region, whose neighbor order (dyn_graph.mli) algorithms
   observe through [View.neighbors]. *)
module Ref_region = struct
  type t = {
    host : Graph.t;
    radius : int;
    region : Dyn_graph.t;
    frontier : Bfs.Frontier.t;
    handle_of_host : int array;
    mutable host_of_handle : Graph.node array;
  }

  let create host radius =
    {
      host;
      radius;
      region = Dyn_graph.create ();
      frontier = Bfs.Frontier.create host;
      handle_of_host = Array.make (max (Graph.n host) 1) (-1);
      host_of_handle = Array.make 16 (-1);
    }

  (* [a] at twice its length, the new slots -1. *)
  let doubled a =
    let bigger = Array.make (max 16 (2 * Array.length a)) (-1) in
    Array.blit a 0 bigger 0 (Array.length a);
    bigger

  let record_handle t host_node =
    let handle = Dyn_graph.add_node t.region in
    if handle >= Array.length t.host_of_handle then
      t.host_of_handle <- doubled t.host_of_handle;
    t.host_of_handle.(handle) <- host_node;
    t.handle_of_host.(host_node) <- handle;
    handle

  let reveal_ball t center =
    let fresh = Bfs.Frontier.reveal t.frontier center t.radius in
    let fresh_handles = List.map (fun v -> record_handle t v) fresh in
    List.iter
      (fun v ->
        let hv = t.handle_of_host.(v) in
        Graph.iter_neighbors t.host v (fun w ->
            let hw = t.handle_of_host.(w) in
            if hw >= 0 then Dyn_graph.add_edge t.region hv hw))
      fresh;
    fresh_handles
end

(* Hosts of every family the executor plays on, small enough to compare
   every handle at every step: simple grids, tori and cylinders, thm2
   variant hosts, gadget chains at k = 3..5 (k = 5 rows pass degree 32,
   where the bucket count doubles), random and complete graphs. *)
let random_host state =
  let int lo hi = lo + Random.State.int state (hi - lo + 1) in
  let wraps = [| Topology.Grid2d.Simple; Toroidal; Cylindrical |] in
  match Random.State.int state 6 with
  | 0 ->
      let wrap = wraps.(Random.State.int state 3) in
      let rows = int 3 8 and cols = int 3 8 in
      ( Printf.sprintf "grid %dx%d" rows cols,
        Topology.Grid2d.graph (Topology.Grid2d.create wrap ~rows ~cols) )
  | 1 ->
      let rows = int 3 9 and cols = int 3 9 in
      let band_lo = int 0 (rows - 1) in
      let band_hi = int band_lo (rows - 1) in
      let wrap = if Random.State.bool state then `Toroidal else `Cylindrical in
      ( Printf.sprintf "thm2 variant %dx%d band %d..%d" rows cols band_lo band_hi,
        Online_local.Thm2_adversary.variant_host ~wrap ~rows ~cols ~reflect:true ~band_lo
          ~band_hi )
  | 2 ->
      let k = int 3 5 and gadgets = int 1 4 in
      let seam = if gadgets > 1 && Random.State.bool state then Some (int 0 (gadgets - 2)) else None in
      ( Printf.sprintf "gadgets k=%d x%d" k gadgets,
        Topology.Gadget.graph (Topology.Gadget.create ?seam ~k ~gadgets ()) )
  | 3 | 4 ->
      let n = int 2 40 in
      let edges = List.init (int 0 (4 * n)) (fun _ -> (int 0 (n - 1), int 0 (n - 1))) in
      ( Printf.sprintf "random n=%d" n,
        Graph.create ~n ~edges:(List.filter (fun (u, v) -> u <> v) edges) )
  | _ ->
      let n = int 1 40 in
      (Printf.sprintf "K%d" n, Graph.complete n)

(* After every step, the view of a run and the reference region agree on
   the node count, the new nodes, the handle map, the set
   [iter_neighbors] visits, [mem_edge] on sampled pairs, the error for
   unknown handles, and every handle's neighbor list, order included.
   Half the runs read the lists at random steps only, so that one
   [neighbors] call wires several steps. *)
let test_neighbor_order_matches_region () =
  let state = Random.State.make [| 29 |] in
  for run = 1 to 400 do
    let name, host = random_host state in
    let n = Graph.n host in
    let locality = Random.State.int state 4 and oracle_radius = Random.State.int state 2 in
    let ref_region = Ref_region.create host (locality + oracle_radius) in
    let order =
      let all = FH.orders ~all:host (`Random (Random.State.bits state)) in
      if Random.State.bool state then all
      else List.filteri (fun i _ -> i < 1 + Random.State.int state n) all
    in
    let case = Printf.sprintf "run %d, %s, T=%d+%d" run name locality oracle_radius in
    let expected_new = ref [] in
    let every_step = Random.State.bool state in
    let compare_view (view : V.t) =
      let read_order = every_step || Random.State.int state 4 = 0 in
      let count = Dyn_graph.n ref_region.Ref_region.region in
      let fail what = Alcotest.failf "%s, step %d: %s" case view.V.step what in
      if view.V.node_count () <> count then fail "node_count";
      if view.V.new_nodes <> !expected_new then fail "new_nodes";
      for h = 0 to count - 1 do
        let expected = Dyn_graph.neighbors ref_region.Ref_region.region h in
        let got = if read_order then view.V.neighbors h else expected in
        if got <> expected then
          fail
            (Printf.sprintf "handle %d neighbors [%s], expected [%s]" h
               (String.concat ";" (List.map string_of_int got))
               (String.concat ";" (List.map string_of_int expected)));
        let seen = ref [] in
        view.V.iter_neighbors h (fun w -> seen := w :: !seen);
        if List.sort compare !seen <> List.sort compare expected then
          fail (Printf.sprintf "handle %d iter_neighbors" h);
        let b = Random.State.int state count in
        if view.V.mem_edge h b <> Dyn_graph.mem_edge ref_region.Ref_region.region h b then
          fail (Printf.sprintf "mem_edge %d %d" h b);
        List.iter
          (fun w -> if not (view.V.mem_edge w h) then fail (Printf.sprintf "mem_edge %d %d" w h))
          expected
      done;
      List.iter
        (fun bad ->
          let raises f =
            match f () with
            | () -> false
            | exception Invalid_argument msg -> msg = "Dyn_graph: unknown handle"
          in
          if
            not
              (((not read_order) || raises (fun () -> ignore (view.V.neighbors bad)))
              && raises (fun () -> view.V.iter_neighbors bad ignore)
              && raises (fun () -> ignore (view.V.mem_edge bad 0))
              && raises (fun () -> ignore (view.V.mem_edge 0 bad)))
          then fail (Printf.sprintf "unknown handle %d accepted" bad))
        [ -1; count ]
    in
    (* The executor contains what an algorithm raises, so the view is
       compared after [present] returns; it still shows that step. *)
    let seen = ref None in
    let algorithm =
      A.stateless ~name:"order-check" ~locality:(fun ~n:_ -> locality) (fun view ->
          seen := Some view;
          0)
    in
    let oracle ~to_host:_ =
      {
        Models.Oracle.parts = 2;
        radius = oracle_radius;
        query = (fun _ hs -> Array.make (List.length hs) 0);
      }
    in
    let t = FH.start ~oracle ~host ~palette:3 ~algorithm () in
    List.iter
      (fun v ->
        expected_new := Ref_region.reveal_ball ref_region v;
        seen := None;
        ignore (FH.present t v);
        (match !seen with Some view -> compare_view view | None -> Alcotest.fail "no view");
        for h = 0 to Dyn_graph.n ref_region.Ref_region.region - 1 do
          if FH.to_host t h <> ref_region.Ref_region.host_of_handle.(h) then
            Alcotest.failf "%s: handle %d's host node" case h
        done)
      order
  done

(* ------------------------- greedy first-fit ------------------------- *)

(* Greedy's answer from the neighbor list, as it was before it walked
   [iter_neighbors]. *)
let list_greedy (view : V.t) =
  let used = List.filter_map (fun w -> view.V.output w) (view.V.neighbors view.V.target) in
  let rec first c = if List.mem c used then first (c + 1) else c in
  let candidate = first 0 in
  if candidate < view.V.palette then candidate else 0

(* Random views around one target, with up to 80 neighbors, partial
   outputs, colors past the palette, and palettes 1..70: the walk must
   answer as the list did.  The first [used] neighbors take colors 0,
   1, ... (one of them sometimes left uncolored), so first-fit often
   searches past 62 colors. *)
let test_greedy_matches_list_answer () =
  let state = Random.State.make [| 62 |] in
  let greedy = A.greedy_first_fit.A.instantiate ~n:100 ~palette:3 ~oracle:None in
  for _ = 1 to 3000 do
    let d = Random.State.int state 81 in
    let used = Random.State.int state 76 and gap = Random.State.int state 100 in
    let outputs =
      Array.init (d + 1) (fun i ->
          if i = 0 || i - 1 = gap then None
          else if i <= used then Some (i - 1)
          else if Random.State.bool state then None
          else Some (Random.State.int state 76))
    in
    let neighbors = List.init d (fun i -> i + 1) in
    let view =
      {
        V.n_total = 100;
        palette = 1 + Random.State.int state 70;
        node_count = (fun () -> d + 1);
        neighbors = (fun h -> if h = 0 then neighbors else [ 0 ]);
        iter_neighbors = (fun h f -> List.iter f (if h = 0 then neighbors else [ 0 ]));
        mem_edge = (fun a b -> a <> b && (a = 0 || b = 0));
        id = (fun h -> h + 1);
        output = (fun h -> outputs.(h));
        hint = (fun _ -> None);
        target = 0;
        new_nodes = [];
        step = 1;
      }
    in
    let expected = list_greedy view and got = greedy view in
    if got <> expected then
      Alcotest.failf "palette %d, %d neighbors: greedy %d, list answer %d" view.V.palette d got
        expected
  done

(* ------------------------- LOCAL model ------------------------- *)

let test_local_stripes_runs () =
  let g2 = grid 5 6 in
  let host = Topology.Grid2d.graph g2 in
  let algo = Models.Local_model.grid_stripes g2 in
  let coloring = Models.Local_model.run ~host ~palette:3 algo in
  check_bool "proper" true (Colorings.Coloring.is_proper_total host coloring ~colors:3)

let test_local_ball_view_is_local () =
  (* A LOCAL algorithm at locality 1 sees exactly its closed neighborhood. *)
  let sizes = ref [] in
  let algo =
    {
      Models.Local_model.name = "size-probe";
      locality = (fun ~n:_ -> 1);
      output =
        (fun ~n:_ ~palette:_ view ->
          sizes := view.V.node_count () :: !sizes;
          0);
    }
  in
  let host = Graph.cycle_graph 10 in
  ignore (Models.Local_model.run ~host ~palette:1 algo);
  check_bool "every view has 3 nodes" true (List.for_all (( = ) 3) !sizes)

let test_local_to_online_simulation () =
  (* The simulated LOCAL algorithm must produce the same coloring in
     Online-LOCAL as in LOCAL, for every presentation order. *)
  let g2 = grid 4 5 in
  let host = Topology.Grid2d.graph g2 in
  let algo = Models.Local_model.grid_stripes g2 in
  let direct = Models.Local_model.run ~host ~palette:3 algo in
  List.iter
    (fun order ->
      let outcome =
        FH.run ~host ~palette:3 ~algorithm:(Models.Local_model.to_online algo) ~order ()
      in
      check_bool "simulation succeeded" true (RS.succeeded outcome ~colors:3 ~host);
      Graph.iter_nodes host (fun v ->
          check_int "same output"
            (Colorings.Coloring.get_exn direct v)
            (Colorings.Coloring.get_exn outcome.RS.coloring v)))
    [ FH.orders ~all:host `Sequential; FH.orders ~all:host (`Random 4) ]

(* ------------------------- SLOCAL model ------------------------- *)

let test_slocal_greedy () =
  let host = Graph.complete 5 in
  let order = FH.orders ~all:host `Sequential in
  let coloring = Models.Slocal.run ~host ~palette:5 ~order Models.Slocal.greedy in
  check_bool "greedy (degree+1)-colors K5" true
    (Colorings.Coloring.is_proper_total host coloring ~colors:5)

let test_slocal_to_online_matches () =
  let g2 = grid 5 5 in
  let host = Topology.Grid2d.graph g2 in
  let order = FH.orders ~all:host (`Random 21) in
  let direct = Models.Slocal.run ~host ~palette:4 ~order Models.Slocal.greedy in
  let outcome =
    FH.run ~host ~palette:4
      ~algorithm:(Models.Slocal.to_online Models.Slocal.greedy)
      ~order ()
  in
  Graph.iter_nodes host (fun v ->
      check_int "same greedy output"
        (Colorings.Coloring.get_exn direct v)
        (Colorings.Coloring.get_exn outcome.RS.coloring v))

let test_partial_order_partial_coloring () =
  (* Presenting only part of the host yields a partial coloring, which
     never counts as success. *)
  let host = Graph.path_graph 10 in
  let outcome =
    FH.run ~host ~palette:2 ~algorithm:A.greedy_first_fit ~order:[ 0; 1; 2 ] ()
  in
  check_bool "no violation" true (outcome.RS.violation = None);
  check_int "three colored" 3 (Colorings.Coloring.colored_count outcome.RS.coloring);
  check_bool "not succeeded" false (RS.succeeded outcome ~colors:2 ~host)

let test_algorithm_exception_becomes_certificate () =
  let crasher =
    A.stateless ~name:"crasher" ~locality:(fun ~n:_ -> 1) (fun view ->
        if view.V.step = 2 then failwith "boom" else 0)
  in
  let host = Graph.path_graph 4 in
  let outcome = FH.run ~host ~palette:3 ~algorithm:crasher ~order:[ 0; 2; 3 ] () in
  match outcome.RS.violation with
  | Some (RS.Algorithm_failure { node = 2; message; _ }) ->
      check_bool "message mentions boom" true
        (String.length message > 0);
      (* The run stopped at the failing step. *)
      check_int "stopped" 2 outcome.RS.presented
  | other ->
      Alcotest.failf "expected algorithm failure, got %s"
        (match other with
        | None -> "success"
        | Some v -> Format.asprintf "%a" RS.pp_violation v)

let test_run_with_duplicate_order_certifies () =
  (* [run] converts a duplicated reveal order into a typed violation
     instead of letting [present]'s invalid_arg abort the run. *)
  let host = Graph.path_graph 5 in
  let outcome =
    FH.run ~host ~palette:3 ~algorithm:A.greedy_first_fit ~order:[ 0; 2; 2; 3 ] ()
  in
  (match outcome.RS.violation with
  | Some (RS.Repeated_presentation 2) -> ()
  | _ -> Alcotest.fail "expected repeated-presentation certificate");
  check_int "stopped at the duplicate" 2 outcome.RS.presented

let test_extreme_colors_certified () =
  let at c =
    let bad = A.stateless ~name:"bad" ~locality:(fun ~n:_ -> 1) (fun _ -> c) in
    let outcome =
      FH.run ~host:(Graph.path_graph 3) ~palette:3 ~algorithm:bad ~order:[ 0; 1 ] ()
    in
    match outcome.RS.violation with
    | Some (RS.Palette_overflow { color; _ }) -> color
    | _ -> Alcotest.fail "expected palette overflow"
  in
  check_int "max_int" max_int (at max_int);
  check_int "negative" (-5) (at (-5));
  check_int "min_int" min_int (at min_int)

let test_empty_order_clean_result () =
  let host = Graph.path_graph 4 in
  let outcome = FH.run ~host ~palette:3 ~algorithm:A.greedy_first_fit ~order:[] () in
  check_bool "no violation" true (outcome.RS.violation = None);
  check_int "nothing presented" 0 outcome.RS.presented;
  check_int "nothing colored" 0 (Colorings.Coloring.colored_count outcome.RS.coloring);
  check_bool "not a success" false (RS.succeeded outcome ~colors:3 ~host)

let test_fatal_exception_not_contained () =
  let fatal =
    A.stateless ~name:"fatal" ~locality:(fun ~n:_ -> 1) (fun _ -> raise Out_of_memory)
  in
  Alcotest.check_raises "out of memory propagates" Out_of_memory (fun () ->
      ignore
        (FH.run ~host:(Graph.path_graph 3) ~palette:3 ~algorithm:fatal ~order:[ 0 ] ()))

let test_failure_records_backtrace_field () =
  let crasher =
    A.stateless ~name:"crasher" ~locality:(fun ~n:_ -> 1) (fun _ -> failwith "boom")
  in
  let outcome =
    FH.run ~host:(Graph.path_graph 3) ~palette:3 ~algorithm:crasher ~order:[ 0 ] ()
  in
  match outcome.RS.violation with
  | Some (RS.Algorithm_failure { backtrace; _ }) ->
      (* Recording is enabled by the harness; the field exists and is a
         string either way. *)
      check_bool "backtrace is a string" true (String.length backtrace >= 0)
  | _ -> Alcotest.fail "expected algorithm failure"

let test_kp1_oracle_parts_mismatch () =
  let g2 = grid 4 4 in
  let host = Topology.Grid2d.graph g2 in
  let algo = Online_local.Kp1_coloring.make ~k:3 () in
  Alcotest.check_raises "parts mismatch" (Invalid_argument "kp1: oracle parts <> k")
    (fun () ->
      ignore
        (FH.run
           ~oracle:(Online_local.Oracles.grid_bipartition g2)
           ~host ~palette:4 ~algorithm:algo ~order:[ 0 ] ()))

let test_oracle_radius_extends_reveals () =
  (* With an oracle of radius 2 and locality 1, each presentation must
     reveal the radius-3 host ball. *)
  let g2 = grid 9 9 in
  let host = Topology.Grid2d.graph g2 in
  let algo =
    {
      Models.Algorithm.name = "noop";
      locality = (fun ~n:_ -> 1);
      instantiate = (fun ~n:_ ~palette:_ ~oracle:_ _ -> 0);
    }
  in
  let oracle ~to_host =
    ignore to_host;
    {
      Models.Oracle.parts = 2;
      radius = 2;
      query = (fun _ handles -> Array.make (List.length handles) 0);
    }
  in
  let t = FH.start ~oracle ~host ~palette:3 ~algorithm:algo () in
  let center = Topology.Grid2d.node g2 ~row:4 ~col:4 in
  ignore (FH.present t center);
  let expected = Bfs.ball host [ center ] 3 in
  Alcotest.(check (list int))
    "radius = locality + oracle radius" expected
    (List.sort compare (FH.revealed_host_nodes t))

(* The replay audit passes the executor's own transcripts — random
   orders, an oracle radius, locality 2, a run stopped after its first
   step — and changes nothing in the outcome. *)
let test_validate_accepts_honest_runs () =
  let g2 = grid 9 9 in
  let host = Topology.Grid2d.graph g2 in
  let oracle ~to_host:_ =
    { Models.Oracle.parts = 2; radius = 2; query = (fun _ hs -> Array.make (List.length hs) 0) }
  in
  let c7 = A.stateless ~name:"c7" ~locality:(fun ~n:_ -> 1) (fun _ -> 7) in
  List.iter
    (fun (name, run) ->
      check_bool name true (run ~validate:false () = run ~validate:true ()))
    [
      ( "random order",
        fun ~validate () ->
          FH.run ~validate ~host ~palette:3 ~algorithm:A.greedy_first_fit
            ~order:(FH.orders ~all:host (`Random 4)) () );
      ( "oracle radius",
        fun ~validate () ->
          FH.run ~validate ~oracle ~host ~palette:3 ~algorithm:A.greedy_first_fit
            ~order:(FH.orders ~all:host (`Random 5)) () );
      ( "locality 2",
        fun ~validate () ->
          FH.run ~validate ~host ~palette:3 ~algorithm:(spy (ref [])) ~order:[ 40; 0; 41 ] () );
      ( "stopped by a palette overflow",
        fun ~validate () ->
          FH.run ~validate ~host ~palette:3 ~algorithm:c7 ~order:[ 10; 11; 12 ] () );
    ];
  let t = FH.start ~host ~palette:3 ~algorithm:A.greedy_first_fit () in
  List.iter
    (fun v ->
      ignore (FH.present t v);
      FH.validate t)
    [ 40; 42; 0; 80; 41 ]

(* Validating an honest transcript against another radius is how the
   audit is tampered with: one more misses a ball node, one less finds
   a node revealed outside every ball or before its first ball. *)
let test_validate_rejects_tampered_radius () =
  let host = Graph.path_graph 10 in
  let t = FH.start ~host ~palette:3 ~algorithm:A.greedy_first_fit () in
  ignore (FH.present t 0);
  ignore (FH.present t 5);
  FH.validate t;
  FH.validate ~radius:1 t;
  Alcotest.check_raises "radius + 1"
    (RS.Dishonest_transcript "validate: step 1's ball misses node 2") (fun () ->
      FH.validate ~radius:2 t);
  Alcotest.check_raises "radius - 1"
    (RS.Dishonest_transcript "validate: node 1 revealed at step 1 outside every ball")
    (fun () -> FH.validate ~radius:0 t);
  let t = FH.start ~host ~palette:3 ~algorithm:A.greedy_first_fit () in
  ignore (FH.present t 0);
  ignore (FH.present t 3);
  Alcotest.check_raises "revealed late"
    (RS.Dishonest_transcript
       "validate: node 2 revealed at step 2 but first containing ball is step 1")
    (fun () -> FH.validate ~radius:2 t)

(* [f ()] and every trace event it emits, in order, with a hook
   installed. *)
let traced f =
  let events = ref [] in
  Obs.Trace.set_hook (Some (fun ev -> events := ev :: !events));
  let r = Fun.protect ~finally:(fun () -> Obs.Trace.set_hook None) f in
  (r, List.rev !events)

(* A run the algorithm loses is an honest transcript: its audit event
   is [ok], so a flight recorder does not flush for it.  A repeated
   presentation is the adversary's fault, and anomalous. *)
let test_defeat_is_not_anomalous () =
  let host = Graph.path_graph 6 in
  let outcome, events =
    traced (fun () ->
        FH.run ~validate:true ~host ~palette:2 ~algorithm:A.greedy_first_fit
          ~order:[ 0; 3; 1; 4; 2; 5 ] ())
  in
  check_bool "defeated" true
    (outcome.RS.violation = Some (RS.Monochromatic_edge (2, 3)));
  check_bool "nothing anomalous" false (List.exists Obs.Trace.anomalous events);
  check_bool "audit ok, violation in detail" true
    (List.exists
       (function
         | Obs.Trace.Audit { executor = "fixed_host"; ok = true; detail } ->
             detail = "monochromatic edge 2 -- 3"
         | _ -> false)
       events);
  let _, events =
    traced (fun () -> FH.run ~host ~palette:2 ~algorithm:A.greedy_first_fit ~order:[ 0; 0 ] ())
  in
  check_bool "repeated presentation anomalous" true (List.exists Obs.Trace.anomalous events)

let test_orders () =
  let host = Graph.path_graph 6 in
  Alcotest.(check (list int)) "sequential" [ 0; 1; 2; 3; 4; 5 ]
    (FH.orders ~all:host `Sequential);
  let shuffled = FH.orders ~all:host (`Random 3) in
  check_int "permutation" 6 (List.length (List.sort_uniq compare shuffled));
  Alcotest.(check (list int)) "deterministic" shuffled (FH.orders ~all:host (`Random 3))

(* Pinned renderings: pp_violation/pp_outcome feed trace Audit events,
   checkpointed sweep cells and EXPERIMENTS.md tables, so their exact
   text is a compatibility surface — change it deliberately. *)
let test_pp_violation_pinned () =
  let render v = Format.asprintf "%a" RS.pp_violation v in
  Alcotest.(check string) "monochromatic edge" "monochromatic edge 3 -- 7"
    (render (RS.Monochromatic_edge (3, 7)));
  Alcotest.(check string) "palette overflow" "node 2 got out-of-palette color 9"
    (render (RS.Palette_overflow { node = 2; color = 9 }));
  Alcotest.(check string) "repeated presentation" "node 5 presented twice"
    (render (RS.Repeated_presentation 5));
  Alcotest.(check string) "failure without backtrace"
    "algorithm raised on node 1: Failure(\"boom\")"
    (render
       (RS.Algorithm_failure
          { node = 1; message = "Failure(\"boom\")"; backtrace = "" }));
  Alcotest.(check string) "failure with backtrace"
    "algorithm raised on node 1: Failure(\"boom\") [backtrace recorded]"
    (render
       (RS.Algorithm_failure
          { node = 1; message = "Failure(\"boom\")"; backtrace = "Raised at ..." }))

let test_pp_outcome_pinned () =
  let host = Graph.path_graph 3 in
  let ok =
    FH.run ~host ~palette:3 ~algorithm:A.greedy_first_fit ~order:[ 0; 1; 2 ] ()
  in
  Alcotest.(check string) "clean run" "steps=3 revealed=3 colored=3/3 ok"
    (Format.asprintf "%a" RS.pp_outcome ok);
  let bad =
    let c = A.stateless ~name:"c0" ~locality:(fun ~n:_ -> 1) (fun _ -> 0) in
    FH.run ~host ~palette:3 ~algorithm:c ~order:[ 0; 1; 2 ] ()
  in
  Alcotest.(check string) "violating run"
    "steps=3 revealed=3 colored=3/3 VIOLATION: monochromatic edge 0 -- 1"
    (Format.asprintf "%a" RS.pp_outcome bad)

let () =
  Alcotest.run "models"
    [
      ( "fixed-host",
        [
          Alcotest.test_case "reveal = union of balls" `Quick test_reveal_is_union_of_balls;
          Alcotest.test_case "view induced subgraph" `Quick test_view_is_induced_subgraph;
          Alcotest.test_case "double present rejected" `Quick test_presented_twice_rejected;
          Alcotest.test_case "palette overflow" `Quick test_palette_overflow_certificate;
          Alcotest.test_case "greedy path sequential" `Quick test_greedy_succeeds_on_path;
          Alcotest.test_case "greedy adversarial order" `Quick test_greedy_can_fail_on_adversarial_order;
          Alcotest.test_case "ids and hints" `Quick test_ids_and_hints_plumbing;
          Alcotest.test_case "monotone reveals" `Quick test_spy_sees_monotone_reveals;
          Alcotest.test_case "orders" `Quick test_orders;
          Alcotest.test_case "validate accepts honest runs" `Quick
            test_validate_accepts_honest_runs;
          Alcotest.test_case "validate rejects a tampered radius" `Quick
            test_validate_rejects_tampered_radius;
          Alcotest.test_case "a defeat is not anomalous" `Quick test_defeat_is_not_anomalous;
          Alcotest.test_case "oracle radius accounting" `Quick
            test_oracle_radius_extends_reveals;
          Alcotest.test_case "partial order partial coloring" `Quick
            test_partial_order_partial_coloring;
          Alcotest.test_case "kp1 oracle parts mismatch" `Quick
            test_kp1_oracle_parts_mismatch;
          Alcotest.test_case "exception becomes certificate" `Quick
            test_algorithm_exception_becomes_certificate;
          Alcotest.test_case "duplicate order certified" `Quick
            test_run_with_duplicate_order_certifies;
          Alcotest.test_case "extreme colors certified" `Quick
            test_extreme_colors_certified;
          Alcotest.test_case "empty order clean result" `Quick
            test_empty_order_clean_result;
          Alcotest.test_case "fatal exception not contained" `Quick
            test_fatal_exception_not_contained;
          Alcotest.test_case "backtrace recorded" `Quick
            test_failure_records_backtrace_field;
          Alcotest.test_case "neighbor order matches the region graph" `Quick
            test_neighbor_order_matches_region;
          Alcotest.test_case "greedy matches the list answer" `Quick
            test_greedy_matches_list_answer;
        ] );
      ( "local",
        [
          Alcotest.test_case "stripes runs" `Quick test_local_stripes_runs;
          Alcotest.test_case "ball views local" `Quick test_local_ball_view_is_local;
          Alcotest.test_case "to_online simulation" `Quick test_local_to_online_simulation;
        ] );
      ( "slocal",
        [
          Alcotest.test_case "greedy" `Quick test_slocal_greedy;
          Alcotest.test_case "to_online matches" `Quick test_slocal_to_online_matches;
        ] );
      ( "run-stats",
        [
          Alcotest.test_case "pp_violation pinned" `Quick test_pp_violation_pinned;
          Alcotest.test_case "pp_outcome pinned" `Quick test_pp_outcome_pinned;
        ] );
    ]
