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
        got_ids := List.map view.V.id view.V.new_nodes;
        got_hint := view.V.hint view.V.target;
        0)
  in
  let outcome =
    FH.run
      ~ids:(fun v -> 100 + v)
      ~hints:(fun v -> Some (V.Layer_pos { layer = v }))
      ~host ~palette:3 ~algorithm:probe ~order:[ 1 ] ()
  in
  ignore outcome;
  check_bool "custom ids" true (List.mem 101 !got_ids);
  check_bool "custom hint" true (!got_hint = Some (V.Layer_pos { layer = 1 }))

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
  Alcotest.(check string) "clean run" "steps=3 revealed=3 max_view=3 colored=3/3 ok"
    (Format.asprintf "%a" RS.pp_outcome ok);
  let bad =
    let c = A.stateless ~name:"c0" ~locality:(fun ~n:_ -> 1) (fun _ -> 0) in
    FH.run ~host ~palette:3 ~algorithm:c ~order:[ 0; 1; 2 ] ()
  in
  Alcotest.(check string) "violating run"
    "steps=3 revealed=3 max_view=3 colored=3/3 VIOLATION: monochromatic edge 0 -- 1"
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
