module G = Harness.Guard
module M = Harness.Misbehavior
module Tr = Obs.Trace
module St = Obs.Stats

type t = {
  name : string;
  description : string;
  play :
    ?paranoid:bool ->
    ?limits:G.limits ->
    n:int ->
    Models.Algorithm.t ->
    Verdict.t;
}

let referee ?(limits = G.default_limits) ~adversary ~n algorithm play =
  if Tr.on () then
    Tr.emit
      (Tr.Game_start
         {
           adversary;
           algorithm = algorithm.Models.Algorithm.name;
           n;
           max_color_calls = limits.G.max_color_calls;
           max_work = limits.G.max_work;
           deadline = limits.G.deadline;
         });
  let guard = G.create ~limits () in
  let guarded = G.algorithm guard algorithm in
  let result = G.capture guard (fun () -> play guarded) in
  let guaranteed = match result with Ok (_, _, g) -> g | Error _ -> false in
  let fault = G.fault guard in
  let outcome = Verdict.classify fault (Result.map (fun (r, _, _) -> r) result) in
  let detail =
    match (fault, result) with
    (* The executor contained the guard's exception and its record, in
       the adversary's report, already states the cause. *)
    | Some _, Ok (`Defeated (Models.Run_stats.Algorithm_failure _), detail, _)
    | None, Ok (_, detail, _) ->
        detail
    | Some m, Ok (_, detail, _) -> M.to_string m ^ "; " ^ detail
    | Some m, Error _ | None, Error m -> M.to_string m
  in
  if Tr.on () then
    Tr.emit
      (Tr.Game_verdict
         {
           adversary;
           algorithm = algorithm.Models.Algorithm.name;
           n;
           outcome = Verdict.label outcome;
           guaranteed;
           color_calls = G.color_calls guard;
           work = G.work guard;
         });
  if St.on () then begin
    (* Per-game distributions, once per verdict — never in
       [Guard.tick], which is far too hot to meter.  Only guard meters
       and sizes: deterministic values, per the Stats jobs-invariance
       contract. *)
    St.observe "game.color_calls" (G.color_calls guard);
    St.observe "game.work" (G.work guard);
    St.observe ("game.n." ^ adversary) n
  end;
  {
    Verdict.adversary;
    algorithm = algorithm.Models.Algorithm.name;
    n;
    outcome;
    guaranteed;
    detail;
  }

let thm1 =
  {
    name = "thm1-grid";
    description = "Lemma 3.6 + cycle closure on an n x n simple grid";
    play =
      (fun ?(paranoid = false) ?limits ~n algorithm ->
        let t = algorithm.Models.Algorithm.locality ~n:(n * n) in
        let k = max 1 (Thm1_adversary.recommended_k ~n_side:n ~t) in
        referee ?limits ~adversary:"thm1-grid" ~n algorithm (fun guarded ->
            let r =
              Thm1_adversary.run ~validate:paranoid ~n_side:n ~k
                ~algorithm:guarded ()
            in
            ( r.Thm1_adversary.result,
              Format.asprintf "%a" Thm1_adversary.pp_report r,
              Thm1_adversary.guaranteed ~t ~k )));
  }

let thm2 wrap name =
  {
    name;
    description = "two-row b-value attack on an n x n wrapped grid (n rounded to odd)";
    play =
      (fun ?(paranoid = false) ?limits ~n algorithm ->
        let side = if n mod 2 = 0 then n + 1 else n in
        let rounding =
          if side <> n then
            Printf.sprintf "side rounded %d -> %d (odd side required); " n side
          else ""
        in
        referee ?limits ~adversary:name ~n:side algorithm (fun guarded ->
            let r =
              Thm2_adversary.run ~validate:paranoid ~wrap ~side ~algorithm:guarded ()
            in
            ( r.Thm2_adversary.result,
              rounding ^ Format.asprintf "%a" Thm2_adversary.pp_report r,
              r.Thm2_adversary.preconditions_met )));
  }

let thm2_torus = thm2 `Toroidal "thm2-torus"
let thm2_cylinder = thm2 `Cylindrical "thm2-cylinder"

let thm3 =
  {
    name = "thm3-gadgets";
    description = "gadget seam attack on a chain of n gadgets (k = 3)";
    play =
      (fun ?(paranoid = false) ?limits ~n algorithm ->
        let gadgets = max 3 n in
        referee ?limits ~adversary:"thm3-gadgets" ~n:gadgets algorithm (fun guarded ->
            let r =
              Thm3_adversary.run ~validate:paranoid ~k:3 ~gadgets ~algorithm:guarded ()
            in
            ( r.Thm3_adversary.result,
              Format.asprintf "%a" Thm3_adversary.pp_report r,
              r.Thm3_adversary.preconditions_met )));
  }

(* Upper-bound runs as first-class games: a fixed simple grid, a seeded
   random order, no adversary trickery — the algorithm merely has to
   survive.  These exist so the fault matrix covers upper-bound
   executions too (kp1 needs the bipartition oracle, AEL runs
   oracle-free). *)
let upper ~with_oracle name description =
  {
    name;
    description;
    play =
      (fun ?(paranoid = false) ?limits ~n algorithm ->
        let side = max 4 n in
        let grid = Topology.Grid2d.(create Simple ~rows:side ~cols:side) in
        let host = Topology.Grid2d.graph grid in
        let hints v =
          let row, col = Topology.Grid2d.coords grid v in
          Some (Models.View.Grid_pos { frame = 0; row; col })
        in
        let order = Models.Fixed_host.orders ~all:host (`Random 7) in
        let oracle = if with_oracle then Some (Oracles.grid_bipartition grid) else None in
        referee ?limits ~adversary:name ~n:side algorithm (fun guarded ->
            let outcome =
              Models.Fixed_host.run ~validate:paranoid ?oracle ~hints ~host ~palette:3
                ~algorithm:guarded ~order ()
            in
            ( (match outcome.Models.Run_stats.violation with
              | Some v -> `Defeated v
              | None -> `Survived),
              Format.asprintf "%a" Models.Run_stats.pp_outcome outcome,
              false )));
  }

let upper_grid =
  upper ~with_oracle:false "upper-grid"
    "survive a seeded random order on a simple n x n grid (oracle-free)"

let upper_grid_oracle =
  upper ~with_oracle:true "upper-grid-oracle"
    "survive a seeded random order on a simple n x n grid with the bipartition oracle"

let games = [ thm1; thm2_torus; thm2_cylinder; thm3; upper_grid; upper_grid_oracle ]
let find name = List.find_opt (fun g -> g.name = name) games
