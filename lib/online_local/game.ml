module G = Harness.Guard
module M = Harness.Misbehavior
module Tr = Obs.Trace
module Mx = Obs.Metrics
module St = Obs.Stats

type outcome =
  | Defeated
  | Survived
  | Algorithm_fault of M.t
  | Adversary_fault of M.t

type verdict = {
  adversary : string;
  algorithm : string;
  n : int;
  outcome : outcome;
  defeated : bool;
  guaranteed : bool;
  detail : string;
}

type t = {
  name : string;
  description : string;
  play :
    ?paranoid:bool ->
    ?memo:bool ->
    ?limits:G.limits ->
    n:int ->
    Models.Algorithm.t ->
    verdict;
}

(* One memo context per game: its chain digest is scoped to a single
   run's observable history while the cache table behind it is
   per-domain, so identical games replayed later on the same domain hit.
   The guard charge hook is bound in [referee] once the guard exists. *)
let memo_ctx ~memo algorithm =
  if memo then
    Some (Canon.Memo.create ~pure:algorithm.Models.Algorithm.pure ())
  else None

let outcome_label = function
  | Defeated -> "DEFEATED"
  | Survived -> "survived"
  | Algorithm_fault m -> "ALGORITHM-FAULT (" ^ M.label m ^ ")"
  | Adversary_fault m -> "ADVERSARY-FAULT (" ^ M.label m ^ ")"

(* Metric-name-safe outcome tag (no parentheses, no per-certificate
   cardinality, so totals merge across fault variants). *)
let outcome_tag = function
  | Defeated -> "defeated"
  | Survived -> "survived"
  | Algorithm_fault _ -> "algorithm-fault"
  | Adversary_fault _ -> "adversary-fault"

let pp_verdict ppf v =
  Format.fprintf ppf "@[<v>%s vs %s (n=%d): %s%s@,%s@]" v.adversary v.algorithm v.n
    (outcome_label v.outcome)
    (if v.guaranteed then " [guaranteed]" else "")
    v.detail

let of_violation = function
  | Models.Run_stats.Monochromatic_edge _ -> Defeated
  | Models.Run_stats.Palette_overflow { color; _ } ->
      Algorithm_fault (M.Out_of_palette { color })
  | Models.Run_stats.Algorithm_failure { message; backtrace; _ } ->
      Algorithm_fault (M.Raised { message; backtrace })
  | Models.Run_stats.Repeated_presentation v ->
      Adversary_fault
        (M.Dishonest_transcript
           { message = Printf.sprintf "node %d presented twice" v })

let referee ?(limits = G.default_limits) ?memo ~adversary ~n ~guaranteed algorithm play =
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
  (match memo with
  | Some ctx -> Canon.Memo.set_charge ctx (fun () -> G.charge guard)
  | None -> ());
  let result = G.capture guard (fun () -> play guarded) in
  let outcome, detail =
    (* A typed fault recorded on the guard wins over whatever the
       executor turned it into: the executor only sees a generic
       exception, the guard knows it was a budget/deadline/raise. *)
    match (G.fault guard, result) with
    | Some m, Ok (_, detail) -> (Algorithm_fault m, M.to_string m ^ "; " ^ detail)
    | Some m, Error _ -> (Algorithm_fault m, M.to_string m)
    (* An exception escaping the adversary's own code is an adversary
       fault; Guard.capture already sharpened typed audit failures
       (Run_stats.Dishonest_transcript) into their certificate. *)
    | None, Error m -> (Adversary_fault m, M.to_string m)
    | None, Ok (`Survived, detail) -> (Survived, detail)
    | None, Ok (`Defeated v, detail) -> (of_violation v, detail)
  in
  if Tr.on () then
    Tr.emit
      (Tr.Game_verdict
         {
           adversary;
           algorithm = algorithm.Models.Algorithm.name;
           n;
           outcome = outcome_label outcome;
           guaranteed;
           color_calls = G.color_calls guard;
           work = G.work guard;
         });
  if Mx.on () then begin
    Mx.incr ("game.outcome." ^ outcome_tag outcome);
    Mx.incr ("game.played." ^ adversary);
    (* Guard-meter totals accumulate here, once per game — never in
       [Guard.tick], which is far too hot to meter. *)
    Mx.add "guard.color_calls" (G.color_calls guard);
    Mx.add "guard.work" (G.work guard)
  end;
  if St.on () then begin
    (* Per-game distributions, once per verdict like the metric totals
       above.  Only guard meters and sizes — deterministic values, per
       the Stats jobs-invariance contract. *)
    St.observe "game.color_calls" (G.color_calls guard);
    St.observe "game.work" (G.work guard);
    St.observe ("game.n." ^ adversary) n
  end;
  {
    adversary;
    algorithm = algorithm.Models.Algorithm.name;
    n;
    outcome;
    defeated = (match outcome with Defeated -> true | _ -> false);
    guaranteed;
    detail;
  }

let thm1 =
  {
    name = "thm1-grid";
    description = "Lemma 3.6 + cycle closure on an n x n simple grid";
    play =
      (fun ?(paranoid = false) ?(memo = false) ?limits ~n algorithm ->
        let t = algorithm.Models.Algorithm.locality ~n:(n * n) in
        let k = max 1 (Thm1_adversary.recommended_k ~n_side:n ~t) in
        let ctx = memo_ctx ~memo algorithm in
        referee ?limits ?memo:ctx ~adversary:"thm1-grid" ~n
          ~guaranteed:(Thm1_adversary.guaranteed ~t ~k) algorithm
          (fun guarded ->
            let r =
              Thm1_adversary.run ?memo:ctx ~validate:paranoid ~n_side:n ~k
                ~algorithm:guarded ()
            in
            (r.Thm1_adversary.result, Format.asprintf "%a" Thm1_adversary.pp_report r)));
  }

let thm2 wrap name =
  {
    name;
    description = "two-row b-value attack on an n x n wrapped grid (n rounded to odd)";
    play =
      (fun ?paranoid:_ ?(memo = false) ?limits ~n algorithm ->
        let side = if n mod 2 = 0 then n + 1 else n in
        let rounding =
          if side <> n then
            Printf.sprintf "side rounded %d -> %d (odd side required); " n side
          else ""
        in
        let ctx = memo_ctx ~memo algorithm in
        let r = ref None in
        let v =
          referee ?limits ?memo:ctx ~adversary:name ~n:side ~guaranteed:false algorithm
            (fun guarded ->
              let report =
                Thm2_adversary.run ?memo:ctx ~wrap ~side ~algorithm:guarded ()
              in
              r := Some report;
              ( report.Thm2_adversary.result,
                rounding ^ Format.asprintf "%a" Thm2_adversary.pp_report report ))
        in
        let guaranteed =
          match !r with
          | Some report -> report.Thm2_adversary.preconditions_met
          | None -> false
        in
        { v with guaranteed });
  }

let thm2_torus = thm2 `Toroidal "thm2-torus"
let thm2_cylinder = thm2 `Cylindrical "thm2-cylinder"

let thm3 =
  {
    name = "thm3-gadgets";
    description = "gadget seam attack on a chain of n gadgets (k = 3)";
    play =
      (fun ?paranoid:_ ?(memo = false) ?limits ~n algorithm ->
        let gadgets = max 3 n in
        let ctx = memo_ctx ~memo algorithm in
        let r = ref None in
        let v =
          referee ?limits ?memo:ctx ~adversary:"thm3-gadgets" ~n:gadgets ~guaranteed:false
            algorithm (fun guarded ->
              let report =
                Thm3_adversary.run ?memo:ctx ~k:3 ~gadgets ~algorithm:guarded ()
              in
              r := Some report;
              ( report.Thm3_adversary.result,
                Format.asprintf "%a" Thm3_adversary.pp_report report ))
        in
        let guaranteed =
          match !r with
          | Some report -> report.Thm3_adversary.preconditions_met
          | None -> false
        in
        { v with guaranteed });
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
      (fun ?paranoid:_ ?(memo = false) ?limits ~n algorithm ->
        let side = max 4 n in
        let grid = Topology.Grid2d.(create Simple ~rows:side ~cols:side) in
        let host = Topology.Grid2d.graph grid in
        let hints v =
          let row, col = Topology.Grid2d.coords grid v in
          Some (Models.View.Grid_pos { frame = 0; row; col })
        in
        let order = Models.Fixed_host.orders ~all:host (`Random 7) in
        let oracle = if with_oracle then Some (Oracles.grid_bipartition grid) else None in
        let ctx = memo_ctx ~memo algorithm in
        referee ?limits ?memo:ctx ~adversary:name ~n:side ~guaranteed:false algorithm
          (fun guarded ->
            let outcome =
              Models.Fixed_host.run ?memo:ctx ?oracle ~hints ~host ~palette:3
                ~algorithm:guarded ~order ()
            in
            ( (match outcome.Models.Run_stats.violation with
              | Some v -> `Defeated v
              | None -> `Survived),
              Format.asprintf "%a" Models.Run_stats.pp_outcome outcome )));
  }

let upper_grid =
  upper ~with_oracle:false "upper-grid"
    "survive a seeded random order on a simple n x n grid (oracle-free)"

let upper_grid_oracle =
  upper ~with_oracle:true "upper-grid-oracle"
    "survive a seeded random order on a simple n x n grid with the bipartition oracle"

let games = [ thm1; thm2_torus; thm2_cylinder; thm3; upper_grid; upper_grid_oracle ]
let find name = List.find_opt (fun g -> g.name = name) games
