module Fit = Fit

open Online_local
module FH = Models.Fixed_host
module RS = Models.Run_stats

let hr ppf title =
  Format.fprintf ppf "@.----- %s -----@." title

(* E1-E3 classify their adversaries' raw reports.  The result column
   abbreviates an algorithm fault to ALG-FAULT, and a fault's evidence
   columns print "-": the adversary never gathered them. *)
let result_column result =
  match Verdict.classify None (Ok result) with
  | Verdict.Algorithm_fault _ -> ("ALG-FAULT", true)
  | Verdict.Adversary_fault _ as o -> (Verdict.label o, true)
  | (Verdict.Defeated | Verdict.Survived) as o -> (Verdict.label o, false)

(* ------------------------------- E1 ------------------------------- *)

let e1_grid_lower_bound ?(quick = false) ppf =
  hr ppf "E1 (Theorem 1): 3-coloring simple grids needs Omega(log n)";
  Format.fprintf ppf
    "@.(a) Lemma 3.6 adversary (b-target k = 9, guaranteed vs locality 1) vs portfolio:@.";
  Format.fprintf ppf "%-24s %-10s %-9s %-10s %s@." "algorithm" "result" "forced_b"
    "presented" "region";
  List.iter
    (fun (name, algo) ->
      let r = Thm1_adversary.run ~n_side:400 ~k:9 ~algorithm:algo () in
      Format.fprintf ppf "%-24s %-10s %-9d %-10d %dx%d@." name
        (fst (result_column r.Thm1_adversary.result))
        r.Thm1_adversary.forced_b r.Thm1_adversary.presented r.Thm1_adversary.width
        r.Thm1_adversary.height)
    (Portfolio.grid_baselines ());
  Format.fprintf ppf
    "@.(b) defeat frontier for the paper's algorithm: smallest b-target k* that@.";
  Format.fprintf ppf
    "    defeats AEL at locality T (grows with T <=> T* grows with log n):@.";
  Format.fprintf ppf "%-6s %-6s@." "T" "k*";
  let ts = if quick then [ 1; 2; 3 ] else [ 1; 2; 3; 4; 5; 6; 8 ] in
  List.iter
    (fun t ->
      match
        Measure.min_defeating_b ~n_side:6000
          ~algorithm:(fun () -> Portfolio.ael ~t ())
          ~k_max:12
      with
      | Some k -> Format.fprintf ppf "%-6d %-6d@." t k
      | None -> Format.fprintf ppf "%-6d > 12@." t)
    ts;
  Format.fprintf ppf
    "@.(c) guaranteed-defeat locality threshold vs n (adversary needs k > 4T+4@.";
  Format.fprintf ppf
    "    and a region of width w(k) = 2 w(k-1) + 3 to fit in sqrt(n)):@.";
  Format.fprintf ppf "%-12s %-14s %-10s %s@." "sqrt(n)" "max fitting k" "T* beaten"
    "log2 sqrt(n)";
  let sides =
    if quick then [ 256; 4096; 65536 ]
    else [ 64; 256; 1024; 4096; 16384; 65536; 262144; 1048576 ]
  in
  let points = ref [] in
  List.iter
    (fun side ->
      (* Largest T such that recommended_k(side, T) > 4T + 4. *)
      let rec best t acc =
        let k = Thm1_adversary.recommended_k ~n_side:side ~t in
        if Thm1_adversary.guaranteed ~t ~k then best (t + 1) t else acc
      in
      let t_star = best 1 0 in
      points := (float_of_int side, float_of_int t_star) :: !points;
      Format.fprintf ppf "%-12d %-14d %-10d %.1f@." side
        (Thm1_adversary.recommended_k ~n_side:side ~t:1)
        t_star
        (log (float_of_int side) /. log 2.))
    sides;
  if List.length !points >= 2 then
    Format.fprintf ppf "fit of T* against log2 sqrt(n): %a@." Fit.pp
      (Fit.fit_log_x (List.rev !points));
  (* Ablation (DESIGN.md decision 1): the adversary's power is exactly
     the deferred placement.  On a coordinate-leaking executor — a fixed
     host with honest global coordinate hints — the trivial stripes
     algorithm survives every presentation order. *)
  Format.fprintf ppf
    "@.(d) ablation: with coordinates leaked (fixed host, global hints), the@.";
  Format.fprintf ppf
    "    locality-1 stripes algorithm survives every order the adversary has:@.";
  let side = if quick then 20 else 40 in
  let g = Topology.Grid2d.create Topology.Grid2d.Simple ~rows:side ~cols:side in
  let host = Topology.Grid2d.graph g in
  let hints v =
    let row, col = Topology.Grid2d.coords g v in
    Some (Models.View.Grid_pos { frame = 0; row; col })
  in
  let survived =
    List.for_all
      (fun order ->
        let outcome =
          FH.run ~hints ~host ~palette:3 ~algorithm:(Portfolio.stripes3 ()) ~order ()
        in
        RS.succeeded outcome ~colors:3 ~host)
      (Measure.adversarial_orders ~host ~seeds:[ 1; 2; 3 ])
  in
  Format.fprintf ppf
    "    stripes3 on %dx%d with leaked coordinates: survived all orders = %b@."
    side side survived;
  Format.fprintf ppf
    "    (the same stripes3 is DEFEATED above under deferred placement)@."

(* ------------------------------- E2 ------------------------------- *)

let e2_torus_lower_bound ?(quick = false) ppf =
  hr ppf "E2 (Theorem 2): toroidal/cylindrical grids need Omega(sqrt n)";
  Format.fprintf ppf
    "@.Two-row attack: defeat requires odd side and 4T+4 <= side, i.e. the@.";
  Format.fprintf ppf
    "threshold is linear in sqrt(n).  Playing locality-1 algorithms across sides:@.";
  Format.fprintf ppf "%-12s %-6s %-18s %-10s %-10s %s@." "wrap" "side" "algorithm"
    "preconds" "result" "s-values (e/w)";
  let sides = if quick then [ 9; 21 ] else [ 9; 13; 21; 33; 51 ] in
  (* id-stripes is proper on the plain 3-divisible host; greedy is the
     naive baseline.  Both fall to the reflection. *)
  let id_stripes side =
    Models.Algorithm.stateless ~name:"id-stripes" ~locality:(fun ~n:_ -> 1) (fun view ->
        let v = view.Models.View.id view.Models.View.target - 1 in
        ((v / side) + (v mod side)) mod 3)
  in
  List.iter
    (fun wrap ->
      List.iter
        (fun side ->
          let algorithms =
            ("greedy", Portfolio.greedy ())
            :: ("ael-T1", Portfolio.ael ~t:1 ())
            :: (if side mod 3 = 0 then [ ("id-stripes", id_stripes side) ] else [])
          in
          List.iter
            (fun (name, algorithm) ->
              let r = Thm2_adversary.run ~wrap ~side ~algorithm () in
              let result, fault = result_column r.Thm2_adversary.result in
              Format.fprintf ppf "%-12s %-6d %-18s %-10b %-10s %s@."
                (match wrap with `Cylindrical -> "cylinder" | `Toroidal -> "torus")
                side name r.Thm2_adversary.preconditions_met result
                (if fault then "-/-"
                 else Printf.sprintf "%d/%d" r.Thm2_adversary.s_east r.Thm2_adversary.s_west))
            algorithms)
        sides)
    [ `Cylindrical; `Toroidal ];
  Format.fprintf ppf
    "@.Guaranteed thresholds (formula): T*(side) = (side - 4) / 4 (linear in sqrt n):@.";
  Format.fprintf ppf "%-8s %-8s@." "side" "T*";
  List.iter
    (fun side -> Format.fprintf ppf "%-8d %-8d@." side ((side - 4) / 4))
    (if quick then [ 9; 101 ] else [ 9; 21; 51; 101; 201; 401; 1001 ])

(* ------------------------------- E3 ------------------------------- *)

let e3_gadget_lower_bound ?(quick = false) ppf =
  hr ppf "E3 (Theorem 3): (2k-2)-coloring k-partite graphs needs Omega(n)";
  Format.fprintf ppf "@.Gadget-chain attack across chain lengths (k = 3 unless noted):@.";
  Format.fprintf ppf "%-10s %-4s %-7s %-9s %-10s %-12s %s@." "gadgets" "k" "n"
    "preconds" "result" "seam used" "classes (first/last)";
  let class_name = function
    | Some Colorings.Colorful.Row_colorful -> "row"
    | Some Colorings.Colorful.Column_colorful -> "col"
    | Some Colorings.Colorful.Both -> "both"
    | Some Colorings.Colorful.Neither -> "neither"
    | None -> "-"
  in
  let cases =
    if quick then [ (5, 3); (9, 3) ] else [ (5, 3); (9, 3); (17, 3); (33, 3); (9, 4) ]
  in
  List.iter
    (fun (gadgets, k) ->
      List.iter
        (fun (name, algo) ->
          let r = Thm3_adversary.run ~k ~gadgets ~algorithm:algo () in
          let result, fault = result_column r.Thm3_adversary.result in
          Format.fprintf ppf "%-10d %-4d %-7d %-9b %-10s %-12s %s/%s (%s)@." gadgets k
            (gadgets * k * k)
            r.Thm3_adversary.preconditions_met result
            (if fault then "-" else string_of_bool r.Thm3_adversary.seam_used)
            (if fault then "-" else class_name r.Thm3_adversary.first_class)
            (if fault then "-" else class_name r.Thm3_adversary.last_class)
            name)
        [ ("greedy", Portfolio.greedy ()); ("gadget-rows", Portfolio.gadget_rows ()) ])
    cases;
  Format.fprintf ppf
    "@.Defeat precondition (formula) T < gadgets/2 - 1: the tolerated locality grows@.";
  Format.fprintf ppf "linearly with n = gadgets * k^2, matching Omega(n):@.";
  Format.fprintf ppf "%-10s %-8s %-8s@." "gadgets" "n(k=3)" "max T";
  List.iter
    (fun g -> Format.fprintf ppf "%-10d %-8d %-8d@." g (9 * g) ((g / 2) - 2))
    (if quick then [ 9; 65 ] else [ 9; 17; 33; 65; 129; 257 ])

(* ------------------------------- E4 ------------------------------- *)

let e4_upper_bound_scaling ?(quick = false) ppf =
  hr ppf "E4 (Theorem 4): the (k+1)-coloring algorithm has O(log n) locality";
  Format.fprintf ppf
    "@.Smallest locality T* at which the algorithm beats sequential, two-ends@.";
  Format.fprintf ppf "and seeded-random presentation orders (vs prescribed 3(k-1)log2 n):@.";
  Format.fprintf ppf "%-22s %-8s %-6s %-12s %s@." "host" "n" "T*" "prescribed"
    "T*/log2 n";
  let grid_points = ref [] in
  let report ?(track = false) host_name host ~k ~oracle =
    let n = Grid_graph.Graph.n host in
    let orders = Measure.adversarial_orders ~host ~seeds:[ 1; 2 ] in
    let make ~t = Kp1_coloring.make ~k ~locality:(fun ~n:_ -> t) () in
    let t_max = Kp1_coloring.default_locality ~k ~n in
    match Measure.min_locality_for_success ~host ~palette:(k + 1) ~orders ~make ~oracle ~t_max () with
    | Some t_star ->
        if track then grid_points := (float_of_int n, float_of_int t_star) :: !grid_points;
        Format.fprintf ppf "%-22s %-8d %-6d %-12d %.2f@." host_name n t_star t_max
          (float_of_int t_star /. (log (float_of_int n) /. log 2.))
    | None -> Format.fprintf ppf "%-22s %-8d > %d@." host_name n t_max
  in
  let grid_sides = if quick then [ 8; 16 ] else [ 8; 12; 16; 24; 32; 48 ] in
  List.iter
    (fun side ->
      let g = Topology.Grid2d.create Topology.Grid2d.Simple ~rows:side ~cols:side in
      report ~track:true
        (Printf.sprintf "grid %dx%d (k=2)" side side)
        (Topology.Grid2d.graph g) ~k:2
        ~oracle:(Oracles.grid_bipartition g))
    grid_sides;
  if List.length !grid_points >= 2 then
    Format.fprintf ppf "grid fit of T* against log2 n: %a@." Fit.pp
      (Fit.fit_log_x (List.rev !grid_points));
  let tri_sides = if quick then [ 10 ] else [ 8; 12; 16; 24; 32 ] in
  List.iter
    (fun side ->
      let t = Topology.Tri_grid.create ~side in
      report
        (Printf.sprintf "tri-grid side %d (k=3)" side)
        (Topology.Tri_grid.graph t) ~k:3 ~oracle:(Oracles.tri_grid t))
    tri_sides;
  let ktree_sizes = if quick then [ 100 ] else [ 100; 200; 400; 800 ] in
  List.iter
    (fun n ->
      let kt = Topology.Ktree.random ~k:2 ~n ~seed:42 in
      report
        (Printf.sprintf "2-tree n=%d (k=3)" n)
        (Topology.Ktree.graph kt) ~k:3 ~oracle:(Oracles.ktree kt))
    ktree_sizes;
  Format.fprintf ppf
    "@.Ablation (flip the larger group instead of the smaller): barrier work@.";
  Format.fprintf ppf "on a merge-heavy order, same locality budget:@.";
  Format.fprintf ppf "%-10s %-14s %-14s@." "side" "waves(smaller)" "waves(larger)";
  List.iter
    (fun side ->
      let g = Topology.Grid2d.create Topology.Grid2d.Simple ~rows:side ~cols:side in
      let host = Topology.Grid2d.graph g in
      let waves flip =
        (* A tight (but sufficient) locality so groups actually coexist
           and conflict; summed over several random orders. *)
        List.fold_left
          (fun acc seed ->
            let stats = Kp1_coloring.fresh_stats () in
            let algo =
              Kp1_coloring.make ~stats ~k:2 ~flip ~locality:(fun ~n:_ -> 3) ()
            in
            let order = FH.orders ~all:host (`Random seed) in
            ignore
              (FH.run ~oracle:(Oracles.grid_bipartition g) ~host ~palette:3
                 ~algorithm:algo ~order ());
            acc + stats.Kp1_coloring.wave_commits)
          0 [ 11; 12; 13; 14; 15 ]
      in
      Format.fprintf ppf "%-10d %-14d %-14d@." side (waves `Smaller) (waves `Larger))
    (if quick then [ 16 ] else [ 16; 24; 32 ])

(* ------------------------------- E5 ------------------------------- *)

let e5_reduction ?(quick = false) ppf =
  hr ppf "E5 (Theorem 5): the Lemma 5.7 reduction";
  Format.fprintf ppf
    "@.A' = reduce(A) colors G_k with one color fewer than A needs on G_(k+1);@.";
  Format.fprintf ppf "simulation is information-precise and locality-preserving:@.";
  Format.fprintf ppf "%-6s %-8s %-10s %-12s %s@." "k" "n(G_k)" "A' proper"
    "inner steps" "outer steps";
  let base_side = if quick then 4 else 6 in
  let base =
    Topology.Grid2d.graph
      (Topology.Grid2d.create Topology.Grid2d.Simple ~rows:base_side ~cols:base_side)
  in
  List.iter
    (fun k ->
      let lay = Topology.Layered.create ~base ~k in
      let host = Topology.Layered.graph lay in
      let inner_steps = ref 0 in
      let inner_raw = Kp1_coloring.make ~k:(k + 1) ~locality:(fun ~n:_ -> 8) () in
      let inner =
        {
          inner_raw with
          Models.Algorithm.instantiate =
            (fun ~n ~palette ~oracle ->
              let f = inner_raw.Models.Algorithm.instantiate ~n ~palette ~oracle in
              fun view ->
                incr inner_steps;
                f view);
        }
      in
      let reduced = Thm5_reduction.reduce ~inner in
      let order = FH.orders ~all:host (`Random 17) in
      let outcome =
        FH.run ~oracle:(Oracles.layered lay) ~host ~palette:(k + 1) ~algorithm:reduced
          ~order ()
      in
      Format.fprintf ppf "%-6d %-8d %-10b %-12d %d@." k
        (Grid_graph.Graph.n host)
        (RS.succeeded outcome ~colors:(k + 1) ~host)
        !inner_steps outcome.RS.presented)
    (if quick then [ 2; 3 ] else [ 2; 3; 4 ])

(* ------------------------------- E6 ------------------------------- *)

let e6_lemma_checks ?(quick = false) ppf =
  hr ppf "E6 (groundwork): Lemmas 3.3-3.5, Claim 4.5, Equation (1), exhaustively";
  let square = Grid_graph.Graph.cycle_graph 4 in
  let cells = ref 0 in
  Colorings.Brute.iter_colorings square ~colors:3 (fun colors ->
      incr cells;
      assert (Colorings.Bvalue.b_cycle colors [ 0; 1; 2; 3 ] = 0));
  Format.fprintf ppf "Lemma 3.3: all %d proper 3-colorings of a 4-cycle have b = 0.@." !cells;
  let grid = Topology.Grid2d.create Topology.Grid2d.Simple ~rows:3 ~cols:3 in
  let g = Topology.Grid2d.graph grid in
  let count = ref 0 in
  Colorings.Brute.iter_colorings g ~colors:3 (fun colors ->
      incr count;
      let cycle = Colorings.Bvalue.rectangle_cycle grid ~top:0 ~bottom:2 ~left:0 ~right:2 in
      assert (Colorings.Bvalue.b_cycle colors cycle = 0));
  Format.fprintf ppf
    "Lemma 3.4: all %d proper 3-colorings of the 3x3 grid close the border cycle at b = 0.@."
    !count;
  let cyl = Topology.Grid2d.create Topology.Grid2d.Cylindrical ~rows:2 ~cols:5 in
  let cg = Topology.Grid2d.graph cyl in
  let eq1 = ref 0 in
  Colorings.Brute.iter_colorings cg ~colors:3 (fun colors ->
      incr eq1;
      let east = Topology.Grid2d.row_nodes cyl 0 in
      let west = List.rev (Topology.Grid2d.row_nodes cyl 1) in
      assert (Colorings.Bvalue.b_cycle colors east + Colorings.Bvalue.b_cycle colors west = 0);
      assert (abs (Colorings.Bvalue.b_cycle colors east) mod 2 = 1));
  Format.fprintf ppf
    "Eq. (1) + Lemma 3.5: all %d proper 3-colorings of the 2x5 cylinder have@." !eq1;
  Format.fprintf ppf "  opposite row b-values cancelling, each odd.@.";
  if not quick then begin
    let k = 3 in
    let chain = Topology.Gadget.create ~k ~gadgets:1 () in
    let rows = ref 0 and cols = ref 0 in
    Colorings.Brute.iter_colorings (Topology.Gadget.graph chain) ~colors:((2 * k) - 2)
      (fun colors ->
        match
          Colorings.Colorful.classify
            (Array.init k (fun i ->
                 Array.init k (fun j ->
                     colors.(Topology.Gadget.node chain ~gadget:0 ~row:i ~col:j))))
        with
        | Colorings.Colorful.Row_colorful -> incr rows
        | Colorings.Colorful.Column_colorful -> incr cols
        | Colorings.Colorful.Both | Colorings.Colorful.Neither -> assert false);
    Format.fprintf ppf
      "Claim 4.5: all %d proper 4-colorings of A(3) split %d row- / %d column-colorful.@."
      (!rows + !cols) !rows !cols
  end

(* ------------------------------- E7 ------------------------------- *)

let e7_limits =
  {
    Harness.Guard.max_color_calls = Some 200_000;
    max_work = Some 100_000;
    deadline = Some 10.0;
  }

(* Per-game instance size and well-behaved victim.  The victim only
   matters for the no-fault baseline and the in-palette faults
   (wrong-color, amnesia); the other classes fail at the first call
   regardless. *)
let e7_games () =
  [
    (Game.thm1, 30, fun () -> Portfolio.ael ~t:1 ());
    (* greedy, not ael: an odd-sided torus is not bipartite, so ael's
       honest answer there is to raise — which would shadow the injected
       faults with a baseline Algorithm_fault. *)
    (Game.thm2_torus, 13, fun () -> Portfolio.greedy ());
    (Game.thm2_cylinder, 13, fun () -> Portfolio.greedy ());
    (Game.thm3, 9, fun () -> Portfolio.gadget_rows ());
    (Game.upper_grid, 8, fun () -> Portfolio.ael ~t:4 ());
    (Game.upper_grid_oracle, 8, fun () -> Portfolio.kp1 ~k:2 ~t:8 ());
  ]

let fault_matrix () =
  let injections =
    ("none", fun algo -> algo) :: Harness.Faults.algorithm_faults
  in
  List.concat_map
    (fun (game, n, base) ->
      List.map
        (fun (fault, inject) ->
          let v = game.Game.play ~limits:e7_limits ~n (inject (base ())) in
          (game.Game.name, fault, Verdict.label v.Verdict.outcome))
        injections)
    (e7_games ())

let e7_fault_matrix ?quick:_ ppf =
  hr ppf "E7: engine soundness under fault injection";
  Format.fprintf ppf
    "@.Every fault class x every game must yield exactly the expected typed@.";
  Format.fprintf ppf
    "outcome: honest defeats stay DEFEATED, algorithm bugs become@.";
  Format.fprintf ppf
    "ALGORITHM-FAULT, adversary bugs become ADVERSARY-FAULT, and nothing@.";
  Format.fprintf ppf "aborts the matrix (budgets: %s calls, %s work, %.0fs).@.@."
    (match e7_limits.Harness.Guard.max_color_calls with
    | Some c -> string_of_int c
    | None -> "-")
    (match e7_limits.Harness.Guard.max_work with
    | Some w -> string_of_int w
    | None -> "-")
    (Option.value e7_limits.Harness.Guard.deadline ~default:0.);
  Format.fprintf ppf "%-18s %-16s %s@." "game" "fault" "outcome";
  List.iter
    (fun (game, fault, outcome) ->
      Format.fprintf ppf "%-18s %-16s %s@." game fault outcome)
    (fault_matrix ());
  (* The chaos oracle is a fault on the environment, not the algorithm:
     the Theorem 4 algorithm fed corrupted part ids loses honestly. *)
  let grid = Topology.Grid2d.(create Simple ~rows:8 ~cols:8) in
  let host = Topology.Grid2d.graph grid in
  let oracle ~to_host =
    Harness.Faults.chaos_oracle ~seed:1 (Oracles.grid_bipartition grid ~to_host)
  in
  let order = FH.orders ~all:host (`Random 7) in
  let outcome =
    FH.run ~oracle ~host ~palette:3
      ~algorithm:(Portfolio.kp1 ~k:2 ~t:8 ())
      ~order ()
  in
  Format.fprintf ppf
    "@.chaos oracle (corrupted bipartition) vs kp1 on the 8x8 grid: %s@."
    (match outcome.RS.violation with
    | Some v -> Format.asprintf "%a" RS.pp_violation v
    | None -> "survived (oracle corruption went unpunished!)")

let drivers : (?quick:bool -> Format.formatter -> unit) list =
  [
    e6_lemma_checks;
    e1_grid_lower_bound;
    e2_torus_lower_bound;
    e3_gadget_lower_bound;
    e4_upper_bound_scaling;
    e5_reduction;
    e7_fault_matrix;
  ]

let driver_names =
  [ "e6-lemmas"; "e1-grid"; "e2-torus"; "e3-gadget"; "e4-upper"; "e5-reduction";
    "e7-faults" ]

let run_all ?(quick = false) ?(jobs = 1) ?supervisor ppf =
  (* Each driver renders into a buffer on a supervised worker, and the
     buffers are printed in driver order, so the output is the same at
     any jobs count.  A driver that raises or is quarantined aborts the
     repro — tables must be whole. *)
  let drivers = Array.of_list drivers in
  let names = Array.of_list driver_names in
  let render_driver (driver : ?quick:bool -> Format.formatter -> unit) =
    let buf = Buffer.create 4096 in
    let bppf = Format.formatter_of_buffer buf in
    driver ~quick bppf;
    Format.pp_print_flush bppf ();
    Buffer.contents buf
  in
  Harness.Supervisor.run ?config:supervisor ~jobs
    ~tasks:(Array.length drivers)
    ~key:(fun i -> names.(i))
    ~work:(fun i -> render_driver drivers.(i))
    ~consume:(fun i outcome ->
      match outcome with
      | Harness.Supervisor.Done rendered -> Format.pp_print_string ppf rendered
      | Harness.Supervisor.Failed msg ->
          failwith (Printf.sprintf "driver %s failed: %s" names.(i) msg)
      | Harness.Supervisor.Quarantined q ->
          failwith
            (Printf.sprintf "driver %s: %s" names.(i)
               (Harness.Supervisor.quarantine_to_string q)))
    ();
  Format.pp_print_flush ppf ()
