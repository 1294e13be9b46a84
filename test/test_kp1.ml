open Online_local
module FH = Models.Fixed_host
module RS = Models.Run_stats
module K = Kp1_coloring

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let grid rows cols = Topology.Grid2d.create Topology.Grid2d.Simple ~rows ~cols

let run_grid ?(t = 4) ?(palette = 3) ?stats ~seed ~rows ~cols maker =
  let g = grid rows cols in
  let host = Topology.Grid2d.graph g in
  let algo = maker ?stats ~t () in
  let order = FH.orders ~all:host (`Random seed) in
  let outcome =
    FH.run ~oracle:(Oracles.grid_bipartition g) ~host ~palette ~algorithm:algo ~order ()
  in
  (RS.succeeded outcome ~colors:palette ~host, outcome)

let kp1_maker ?stats ~t () = K.make ?stats ~k:2 ~locality:(fun ~n:_ -> t) ()
let ael_maker ?stats ~t () = K.ael_bipartite ?stats ~locality:(fun ~n:_ -> t) ()

let test_kp1_grid_many_seeds () =
  for seed = 0 to 9 do
    let ok, _ = run_grid ~seed ~rows:16 ~cols:16 kp1_maker in
    check_bool (Printf.sprintf "seed %d" seed) true ok
  done

let test_ael_matches_kp1 () =
  (* The oracle-based k=2 instance and the incremental bipartite instance
     implement the same algorithm; their stats must agree on every run. *)
  for seed = 0 to 5 do
    let s1 = K.fresh_stats () and s2 = K.fresh_stats () in
    let ok1, o1 = run_grid ~stats:s1 ~seed ~rows:14 ~cols:14 kp1_maker in
    let ok2, o2 = run_grid ~stats:s2 ~seed ~rows:14 ~cols:14 ael_maker in
    check_bool "both succeed" true (ok1 && ok2);
    check_int "same swaps" s1.K.swaps s2.K.swaps;
    check_int "same wave commits" s1.K.wave_commits s2.K.wave_commits;
    (* And identical colorings node for node. *)
    let c1 = Colorings.Coloring.to_array_exn o1.RS.coloring in
    let c2 = Colorings.Coloring.to_array_exn o2.RS.coloring in
    Alcotest.(check (array int)) "identical colorings" c1 c2
  done

let test_default_locality_always_succeeds () =
  (* At the prescribed T = 3(k-1)ceil(log2 n), no escapes ever occur. *)
  List.iter
    (fun (rows, cols, seed) ->
      let g = grid rows cols in
      let host = Topology.Grid2d.graph g in
      let stats = K.fresh_stats () in
      let algo = K.make ~stats ~k:2 () in
      let order = FH.orders ~all:host (`Random seed) in
      let outcome =
        FH.run ~oracle:(Oracles.grid_bipartition g) ~host ~palette:3 ~algorithm:algo
          ~order ()
      in
      check_bool "succeeded" true (RS.succeeded outcome ~colors:3 ~host);
      check_int "no escapes" 0 stats.K.escapes)
    [ (10, 10, 1); (12, 9, 2); (20, 20, 3) ]

let test_sequential_and_two_ends_orders () =
  let g = grid 15 15 in
  let host = Topology.Grid2d.graph g in
  List.iter
    (fun order ->
      let algo = K.make ~k:2 ~locality:(fun ~n:_ -> 5) () in
      let outcome =
        FH.run ~oracle:(Oracles.grid_bipartition g) ~host ~palette:3 ~algorithm:algo
          ~order ()
      in
      check_bool "succeeded" true (RS.succeeded outcome ~colors:3 ~host))
    (Measure.adversarial_orders ~host ~seeds:[ 5; 6 ])

let test_determinism () =
  let run () =
    let _, o = run_grid ~seed:7 ~rows:12 ~cols:12 kp1_maker in
    Colorings.Coloring.to_array_exn o.RS.coloring
  in
  Alcotest.(check (array int)) "same run twice" (run ()) (run ())

let test_tri_grid_k3 () =
  for seed = 0 to 4 do
    let tri = Topology.Tri_grid.create ~side:20 in
    let host = Topology.Tri_grid.graph tri in
    let stats = K.fresh_stats () in
    let algo = K.make ~stats ~k:3 ~locality:(fun ~n:_ -> 6) () in
    let order = FH.orders ~all:host (`Random seed) in
    let outcome =
      FH.run ~oracle:(Oracles.tri_grid tri) ~host ~palette:4 ~algorithm:algo ~order ()
    in
    check_bool (Printf.sprintf "tri seed %d" seed) true
      (RS.succeeded outcome ~colors:4 ~host)
  done

let test_ktree_coloring () =
  List.iter
    (fun k ->
      let kt = Topology.Ktree.random ~k ~n:200 ~seed:(k * 7) in
      let host = Topology.Ktree.graph kt in
      let algo = K.make ~k:(k + 1) ~locality:(fun ~n:_ -> 3) () in
      let order = FH.orders ~all:host (`Random 1) in
      let outcome =
        FH.run ~oracle:(Oracles.ktree kt) ~host ~palette:(k + 2) ~algorithm:algo
          ~order ()
      in
      check_bool
        (Printf.sprintf "(k+2)-colors %d-tree" k)
        true
        (RS.succeeded outcome ~colors:(k + 2) ~host))
    [ 2; 3; 4 ]

let test_layered_coloring () =
  let base = Topology.Grid2d.graph (grid 5 5) in
  List.iter
    (fun k ->
      let lay = Topology.Layered.create ~base ~k in
      let host = Topology.Layered.graph lay in
      let algo = K.make ~k ~locality:(fun ~n:_ -> 5) () in
      let order = FH.orders ~all:host (`Random 2) in
      let outcome =
        FH.run ~oracle:(Oracles.layered lay) ~host ~palette:(k + 1) ~algorithm:algo
          ~order ()
      in
      check_bool
        (Printf.sprintf "(k+1)-colors G_%d" k)
        true
        (RS.succeeded outcome ~colors:(k + 1) ~host))
    [ 2; 3; 4 ]

let test_bipartite_wrapped_grids () =
  (* Even cylinders and even-by-even tori are bipartite, so the k = 2
     algorithm covers them too (Corollary 1.1 is about all bipartite
     graphs, not just simple grids). *)
  List.iter
    (fun (wrap, rows, cols) ->
      let g = Topology.Grid2d.create wrap ~rows ~cols in
      let host = Topology.Grid2d.graph g in
      let algo = K.make ~k:2 ~locality:(fun ~n:_ -> 4) () in
      let order = FH.orders ~all:host (`Random 3) in
      let outcome =
        FH.run ~oracle:(Oracles.grid_bipartition g) ~host ~palette:3 ~algorithm:algo
          ~order ()
      in
      check_bool
        (Printf.sprintf "wrapped %dx%d" rows cols)
        true
        (RS.succeeded outcome ~colors:3 ~host))
    [
      (Topology.Grid2d.Cylindrical, 8, 10);
      (Topology.Grid2d.Toroidal, 8, 10);
      (Topology.Grid2d.Cylindrical, 5, 12);
    ]

let test_general_bipartite_host () =
  (* An arbitrary bipartite host: a random even-cycle-glued structure
     (here: a hypercube-ish graph = product of paths). *)
  let host =
    (* 4-dimensional hypercube: bipartite, degree 4. *)
    let n = 16 in
    let edges = ref [] in
    for v = 0 to n - 1 do
      for b = 0 to 3 do
        let w = v lxor (1 lsl b) in
        if v < w then edges := (v, w) :: !edges
      done
    done;
    Grid_graph.Graph.create ~n ~edges:!edges
  in
  let algo = K.ael_bipartite ~locality:(fun ~n:_ -> 2) () in
  for seed = 0 to 4 do
    let order = FH.orders ~all:host (`Random seed) in
    let outcome = FH.run ~host ~palette:3 ~algorithm:algo ~order () in
    check_bool
      (Printf.sprintf "hypercube seed %d" seed)
      true
      (RS.succeeded outcome ~colors:3 ~host)
  done

(* Randomized end-to-end properties, on the in-repo shrinking engine. *)
let proptest name ~seed ~cases ~print gen p =
  Alcotest.test_case name `Quick (fun () ->
      Proptest.Runner.check_exn
        ~config:{ Proptest.Runner.default_config with seed; cases }
        ~name ~print gen p)

let triple_gen a b c = Proptest.Gen.map3 (fun x y z -> (x, y, z)) a b c

(* At the prescribed locality, kp1 never fails on random small grids
   with random orders. *)
let prop_kp1_prescribed_always_wins =
  proptest "kp1 at prescribed locality always proper" ~seed:0x2B51 ~cases:25
    ~print:(fun (rows, cols, seed) ->
      Printf.sprintf "rows=%d cols=%d seed=%d" rows cols seed)
    Proptest.Gen.(
      triple_gen (int_range 3 14) (int_range 3 14) (int_range 0 10_000))
    (fun (rows, cols, seed) ->
      let g = grid rows cols in
      let host = Topology.Grid2d.graph g in
      let algo = K.make ~k:2 () in
      let order = FH.orders ~all:host (`Random seed) in
      let outcome =
        FH.run ~oracle:(Oracles.grid_bipartition g) ~host ~palette:3 ~algorithm:algo
          ~order ()
      in
      RS.succeeded outcome ~colors:3 ~host)

let prop_ael_tight_locality_proper_or_caught =
  (* At arbitrary (possibly insufficient) localities, the outcome is
     always *audited*: either a proper coloring or an explicit violation
     certificate — never a silent bad state. *)
  proptest "every outcome is proper or certified" ~seed:0x2B52 ~cases:25
    ~print:(fun (side, t, seed) ->
      Printf.sprintf "side=%d t=%d seed=%d" side t seed)
    Proptest.Gen.(
      triple_gen (int_range 4 16) (int_range 1 4) (int_range 0 10_000))
    (fun (side, t, seed) ->
      let g = grid side side in
      let host = Topology.Grid2d.graph g in
      let algo = K.ael_bipartite ~locality:(fun ~n:_ -> t) () in
      let order = FH.orders ~all:host (`Random seed) in
      let outcome = FH.run ~host ~palette:3 ~algorithm:algo ~order () in
      match outcome.RS.violation with
      | Some _ -> true
      | None -> RS.succeeded outcome ~colors:3 ~host)

let test_flip_larger_ablation () =
  (* The ablation must still color properly when T is generous, but it
     performs at least as many type changes as the paper's choice on
     merge-heavy orders. *)
  let g = grid 16 16 in
  let host = Topology.Grid2d.graph g in
  let order = FH.orders ~all:host (`Random 11) in
  let run flip =
    let stats = K.fresh_stats () in
    let algo = K.make ~stats ~k:2 ~flip ~locality:(fun ~n:_ -> 12) () in
    let outcome =
      FH.run ~oracle:(Oracles.grid_bipartition g) ~host ~palette:3 ~algorithm:algo
        ~order ()
    in
    (RS.succeeded outcome ~colors:3 ~host, stats)
  in
  let ok_s, smaller = run `Smaller in
  let ok_l, larger = run `Larger in
  check_bool "smaller flip succeeds" true ok_s;
  check_bool "larger flip succeeds" true ok_l;
  check_bool "ablation does at least as many wave commits" true
    (larger.K.wave_commits >= smaller.K.wave_commits)

let test_palette_too_small_rejected () =
  let g = grid 5 5 in
  let host = Topology.Grid2d.graph g in
  let algo = K.make ~k:2 () in
  Alcotest.check_raises "palette" (Invalid_argument "kp1: palette must have k+1 colors")
    (fun () ->
      ignore
        (FH.run ~oracle:(Oracles.grid_bipartition g) ~host ~palette:2 ~algorithm:algo
           ~order:[ 0 ] ()))

let test_oracle_required () =
  let host = Topology.Grid2d.graph (grid 4 4) in
  let algo = K.make ~k:2 () in
  Alcotest.check_raises "oracle" (Invalid_argument "kp1: partition oracle required")
    (fun () -> ignore (FH.run ~host ~palette:3 ~algorithm:algo ~order:[ 0 ] ()))

let test_k_validation () =
  Alcotest.check_raises "k" (Invalid_argument "kp1: k must be >= 2") (fun () ->
      ignore (K.make ~k:1 ()))

let test_default_locality_formula () =
  check_int "k=2 n=1024" (3 * 10) (K.default_locality ~k:2 ~n:1024);
  check_int "k=3 n=1000" (6 * 10) (K.default_locality ~k:3 ~n:1000);
  check_int "tiny n" 1 (K.default_locality ~k:2 ~n:1)

let test_stats_counters_behave () =
  let g = grid 18 18 in
  let host = Topology.Grid2d.graph g in
  let stats = K.fresh_stats () in
  let algo = K.make ~stats ~k:2 ~locality:(fun ~n:_ -> 3) () in
  let order = FH.orders ~all:host (`Random 9) in
  ignore (FH.run ~oracle:(Oracles.grid_bipartition g) ~host ~palette:3 ~algorithm:algo ~order ());
  check_int "largest group is everything" (18 * 18) stats.K.largest_group;
  check_bool "swaps accompany type changes" true (stats.K.swaps >= stats.K.type_changes);
  check_bool "waves accompany swaps" true
    (stats.K.swaps = 0 || stats.K.wave_commits > 0)

(* ------------------------------------------------------------------ *)
(* The frontier barrier against the barrier that rescanned X' ([Ref_kp1]) *)
(* ------------------------------------------------------------------ *)

module R = Ref_kp1

let outcome f = match f () with v -> Ok v | exception e -> Error e

let show = function
  | Ok c -> string_of_int c
  | Error e -> "raised " ^ Printexc.to_string e

(* Steps on which both sides raised, over every game: the exception
   messages must be compared at least once. *)
let raised_steps = ref 0

(* One algorithm that instantiates [current] and [reference] alike and
   asks both on every view, the reference first.  A disagreement (an
   answer, or an exception by its message) is recorded in [mismatches],
   not raised, since the executor would turn it into a verdict; the game
   goes on with [current]'s answer or exception. *)
let lockstep ~current ~reference mismatches =
  let record fmt = Printf.ksprintf (fun m -> mismatches := m :: !mismatches) fmt in
  {
    current with
    Models.Algorithm.instantiate =
      (fun ~n ~palette ~oracle ->
        let start a =
          outcome (fun () -> a.Models.Algorithm.instantiate ~n ~palette ~oracle)
        in
        match (start current, start reference) with
        | Ok c, Ok r ->
            fun view ->
              let ra = outcome (fun () -> r view) in
              let ca = outcome (fun () -> c view) in
              if show ca <> show ra then
                record "step %d: current %s, reference %s" view.Models.View.step (show ca)
                  (show ra);
              (match ca with
              | Ok color -> color
              | Error e ->
                  incr raised_steps;
                  raise e)
        | c, r ->
            let s = function Ok _ -> "started" | Error e -> Printexc.to_string e in
            if s c <> s r then record "instantiate: current %s, reference %s" (s c) (s r);
            (match c with Ok c -> c | Error e -> raise e));
  }

(* Swaps and escapes summed over every game, for the coverage checks. *)
let totals = K.fresh_stats ()

(* Plays one game with [play] on the lockstep pair that [make] builds
   around two fresh stats records, then compares every counter. *)
let differential name make play =
  let cs = K.fresh_stats () and rs = R.fresh_stats () in
  let current, reference = make cs rs in
  let mismatches = ref [] in
  play (lockstep ~current ~reference mismatches);
  List.iter
    (fun (what, c, r) ->
      if c <> r then
        mismatches :=
          Printf.sprintf "stats %s: current %d, reference %d" what c r :: !mismatches)
    [
      ("wave_commits", cs.K.wave_commits, rs.R.wave_commits);
      ("escapes", cs.K.escapes, rs.R.escapes);
      ("swaps", cs.K.swaps, rs.R.swaps);
      ("type_changes", cs.K.type_changes, rs.R.type_changes);
      ("merges", cs.K.merges, rs.R.merges);
      ("largest_group", cs.K.largest_group, rs.R.largest_group);
    ];
  (match List.rev !mismatches with
  | [] -> ()
  | m :: _ -> Alcotest.failf "%s: %s" name m);
  totals.K.escapes <- totals.K.escapes + cs.K.escapes;
  totals.K.swaps <- totals.K.swaps + cs.K.swaps

let ael_pair t cs rs =
  let locality ~n:_ = t in
  (K.ael_bipartite ~stats:cs ~locality (), R.ael_bipartite ~stats:rs ~locality ())

let kp1_pair ~k t cs rs =
  let locality ~n:_ = t in
  (K.make ~stats:cs ~k ~locality (), R.make ~stats:rs ~k ~locality ())

(* [games ()] plays one family of games; it must make the barrier run. *)
let family name games =
  let swaps = totals.K.swaps in
  games ();
  if totals.K.swaps = swaps then Alcotest.failf "%s: no game ran Algorithm 1" name

let test_matches_reference () =
  raised_steps := 0;
  family "thm1" (fun () ->
      (* Theorem 1: the Lemma 3.6 adversary on the deferred executor. *)
      List.iter
        (fun side ->
          for t = 1 to 8 do
            let k = Thm1_adversary.recommended_k ~n_side:side ~t in
            differential
              (Printf.sprintf "thm1 ael T=%d side %d k=%d" t side k)
              (ael_pair t)
              (fun algorithm -> ignore (Thm1_adversary.run ~n_side:side ~k ~algorithm ()))
          done)
        [ 256; 4096 ]);
  (* Theorem 2's wrapped grids, where AEL at T = 1 raises. *)
  List.iter
    (fun (wrap, name) ->
      List.iter
        (fun side ->
          differential
            (Printf.sprintf "thm2 %s ael T=1 side %d" name side)
            (ael_pair 1)
            (fun algorithm -> ignore (Thm2_adversary.run ~wrap ~side ~algorithm ())))
        [ 13; 17; 21 ])
    [ (`Toroidal, "torus"); (`Cylindrical, "cylinder") ];
  if !raised_steps = 0 then Alcotest.fail "thm2: no step raised";
  (* A band, so that small localities see groups merge. *)
  let base = Topology.Grid2d.graph (grid 3 24) in
  family "thm4" (fun () ->
      (* Theorem 4: kp1 with k = 3 on G_3, with the layered oracle. *)
      let g3 = Topology.Layered.create ~base ~k:3 in
      let host = Topology.Layered.graph g3 in
      for seed = 0 to 11 do
        let t = 1 + (seed mod 2) in
        differential
          (Printf.sprintf "kp1 k=3 on G3 T=%d seed %d" t seed)
          (kp1_pair ~k:3 t)
          (fun algorithm ->
            ignore
              (FH.run ~oracle:(Oracles.layered g3) ~host ~palette:4 ~algorithm
                 ~order:(FH.orders ~all:host (`Random seed)) ()))
      done);
  family "thm5" (fun () ->
      (* Theorem 5: reduce (kp1 with k = 3) plays its inner kp1 on the
         G_3 it mirrors from a G_2 host. *)
      let g2 = Topology.Layered.create ~base ~k:2 in
      let host = Topology.Layered.graph g2 in
      for seed = 0 to 11 do
        let t = 1 + (seed mod 2) in
        differential
          (Printf.sprintf "reduce (kp1 k=3) T=%d seed %d" t seed)
          (kp1_pair ~k:3 t)
          (fun inner ->
            ignore
              (FH.run ~oracle:(Oracles.layered g2) ~host ~palette:3
                 ~algorithm:(Thm5_reduction.reduce ~inner)
                 ~order:(FH.orders ~all:host (`Random seed)) ()))
      done);
  if totals.K.escapes = 0 then Alcotest.fail "no barrier node escaped its group"

let () =
  Alcotest.run "kp1-coloring"
    [
      ( "grid-k2",
        [
          Alcotest.test_case "many seeds" `Quick test_kp1_grid_many_seeds;
          Alcotest.test_case "ael = kp1(k=2)" `Quick test_ael_matches_kp1;
          Alcotest.test_case "prescribed locality" `Quick test_default_locality_always_succeeds;
          Alcotest.test_case "stress orders" `Quick test_sequential_and_two_ends_orders;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "other-hosts",
        [
          Alcotest.test_case "triangular grid k=3" `Slow test_tri_grid_k3;
          Alcotest.test_case "k-trees" `Quick test_ktree_coloring;
          Alcotest.test_case "layered G_k" `Quick test_layered_coloring;
          Alcotest.test_case "bipartite wrapped grids" `Quick test_bipartite_wrapped_grids;
          Alcotest.test_case "hypercube host" `Quick test_general_bipartite_host;
        ] );
      ( "kp1-properties",
        [ prop_kp1_prescribed_always_wins; prop_ael_tight_locality_proper_or_caught ] );
      ( "ablation-and-validation",
        [
          Alcotest.test_case "flip larger" `Quick test_flip_larger_ablation;
          Alcotest.test_case "palette too small" `Quick test_palette_too_small_rejected;
          Alcotest.test_case "oracle required" `Quick test_oracle_required;
          Alcotest.test_case "k >= 2" `Quick test_k_validation;
          Alcotest.test_case "default locality" `Quick test_default_locality_formula;
          Alcotest.test_case "stats counters" `Quick test_stats_counters_behave;
        ] );
      ( "reference",
        [
          Alcotest.test_case "frontier barrier = rescanning barrier" `Quick
            test_matches_reference;
        ] );
    ]
