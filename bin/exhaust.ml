(* Exhaustive small-n verification of the Theorem 1 lower bound.

   The claim being checked: in b-force mode (Lemma 3.6 without the
   endgame) the Theorem 1 adversary defeats every strategy of a class
   within the budget — each enumerated strategy either produces a
   monochromatic edge or is forced into a row path of b-value >= k.
   Two enumerations run, over two different classes:

   - naive: a strategy maps the answer transcript so far to a color in
     {0,1,2}.  The adversary is deterministic, so the transcript fixes
     everything an algorithm has seen — the whole revealed graph, the
     presentation order, its own outputs — and this class is EVERY
     deterministic online-LOCAL strategy against this adversary.  The
     zero-survivor result at k <= 2 rests on this mode.
   - canonical: a strategy maps the canonical form (Canon.key) of the
     target's revealed component — structure, prior outputs, and which
     node is the target, nothing else — to a color.  These are the
     component-local strategies, a strict subclass: a real algorithm
     also sees the other components, the presentation order and its
     earlier answers.

   The printed "equivalence reduction" is the naive leaf count over the
   canonical one.  It compares the sizes of two strategy classes; it is
   not a symmetry quotient of one class.

   Strategy enumeration is a depth-first search over decision points:
   run the adversary against a table-driven algorithm; any view whose
   key is unmapped answers 0 and records the key in discovery order; on
   completion, backtrack — bump the last decision that still has a
   color < 2, drop everything after it, rerun from scratch.  Reruns
   replay identically up to the changed decision because both sides are
   deterministic.

   A leaf "survives" if the run ends Survived with forced_b < k.  The
   Lemma 3.6 failwith (improper coloring slipping past the per-present
   check, printed as REFUTED) or a surviving leaf (counted in the
   summary) is a refutation and exits 1.  A search that exceeds
   --max-leaves proves nothing either way: it prints INCOMPLETE and
   exits 2.

   dune exec bin/exhaust.exe -- -k 1,2 --side 16 *)

open Online_local
open Cmdliner

(* Canonical key of the revealed component containing the view's
   target.  Colors encode prior outputs and the target flag:
   uncolored = 0, output c = 2*(c+1); +1 marks the target. *)
let component_key view =
  let target = view.Models.View.target in
  let idx : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let q = Queue.create () in
  Hashtbl.replace idx target 0;
  Queue.add target q;
  let count = ref 1 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    order := u :: !order;
    List.iter
      (fun w ->
        if not (Hashtbl.mem idx w) then begin
          Hashtbl.replace idx w !count;
          incr count;
          Queue.add w q
        end)
      (view.Models.View.neighbors u)
  done;
  let n = !count in
  let colors = Array.make n 0 in
  let edges = ref [] in
  List.iter
    (fun u ->
      let iu = Hashtbl.find idx u in
      let flag = if u = target then 1 else 0 in
      colors.(iu) <-
        (match view.Models.View.output u with
        | None -> flag
        | Some c -> (2 * (c + 1)) + flag);
      List.iter
        (fun w ->
          let iw = Hashtbl.find idx w in
          if iu < iw then edges := (iu, iw) :: !edges)
        (view.Models.View.neighbors u))
    !order;
  Canon.key (Canon.make ~n ~edges:!edges ~colors)

(* The paper's region-width recurrence at T=0: w(0) = 1, w(k) = 2w + 3.
   Build never spans wider than this, so any wider leaf is a bug. *)
let width_bound k =
  let rec go k w = if k <= 0 then w else go (k - 1) ((2 * w) + 3) in
  go k 1

type totals = {
  mutable leaves : int;
  mutable survivors : int;
  mutable defeated : int;
  mutable min_presents : int;
  mutable max_presents : int;
  mutable max_depth : int;
  mutable max_width : int;
  classes : (string, unit) Hashtbl.t;
}

(* One adversary run against the strategy [prefix] (decided keys, in
   discovery order).  Returns the full decision list of the leaf —
   prefix plus the fresh keys discovered this run, all answered 0.

   [`Canon] keys each decision on the canonical component (two
   isomorphic views share one decision); [`Naive] keys on the concrete
   answer prefix — the transcript — so every present of every run is
   its own decision point.  The naive mode IS the brute-force
   enumeration of all deterministic strategies; the canonical mode
   enumerates only the component-local ones (see the header). *)
let run_leaf ~mode ~side ~k ~prefix =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 97 in
  List.iter (fun (key, c) -> Hashtbl.replace tbl key c) prefix;
  let fresh = ref [] in
  let presents = ref 0 in
  let transcript = Buffer.create 64 in
  let algorithm =
    Models.Algorithm.stateless ~pure:false ~name:"exhaust-strategy"
      ~locality:(fun ~n:_ -> 0)
      (fun view ->
        incr presents;
        let key =
          match mode with
          | `Canon -> component_key view
          | `Naive -> Buffer.contents transcript
        in
        let c =
          match Hashtbl.find_opt tbl key with
          | Some c -> c
          | None ->
              Hashtbl.replace tbl key 0;
              fresh := key :: !fresh;
              0
        in
        Buffer.add_char transcript (Char.chr (Char.code '0' + c));
        c)
  in
  let report =
    Thm1_adversary.run ~endgame:false ~n_side:side ~k ~algorithm ()
  in
  (prefix @ List.rev_map (fun key -> (key, 0)) !fresh, report, !presents)

(* Next strategy in DFS order: bump the last decision still below color
   2, dropping everything after it. *)
let rec next_strategy = function
  | [] -> None
  | (key, c) :: rest when c < 2 -> Some (List.rev ((key, c + 1) :: rest))
  | _ :: rest -> next_strategy rest

(* The leaf budget ran out: the search is incomplete, not refuted. *)
exception Incomplete of int

let enumerate ~mode ~side ~k ~max_leaves =
  let totals =
    {
      leaves = 0;
      survivors = 0;
      defeated = 0;
      min_presents = max_int;
      max_presents = 0;
      max_depth = 0;
      max_width = 0;
      classes = Hashtbl.create 997;
    }
  in
  let rec go prefix =
    if totals.leaves >= max_leaves then raise (Incomplete max_leaves);
    let decisions, report, presents = run_leaf ~mode ~side ~k ~prefix in
    totals.leaves <- totals.leaves + 1;
    List.iter (fun (key, _) -> Hashtbl.replace totals.classes key ()) decisions;
    totals.min_presents <- min totals.min_presents presents;
    totals.max_presents <- max totals.max_presents presents;
    totals.max_depth <- max totals.max_depth (List.length decisions);
    totals.max_width <- max totals.max_width report.Thm1_adversary.width;
    (match report.Thm1_adversary.result with
    | `Defeated _ -> totals.defeated <- totals.defeated + 1
    | `Survived ->
        if report.Thm1_adversary.forced_b < k then
          totals.survivors <- totals.survivors + 1);
    match next_strategy (List.rev decisions) with
    | None -> ()
    | Some prefix -> go prefix
  in
  go [];
  totals

let run ks side max_leaves min_reduction =
  let ks = Harness.Sweep.int_axis ~flag:"-k" ks in
  let failures = ref 0 and incomplete = ref 0 in
  let print_incomplete k what n =
    incr incomplete;
    Format.printf "exhaust thm1 side=%d k=%d: %sINCOMPLETE (more than %d leaves)@."
      side k what n
  in
  List.iter
    (fun k ->
      match enumerate ~mode:`Canon ~side ~k ~max_leaves with
      | exception Incomplete n -> print_incomplete k "" n
      | exception Failure msg ->
          incr failures;
          Format.printf "exhaust thm1 side=%d k=%d: REFUTED (%s)@." side k msg
      | t -> (
          match enumerate ~mode:`Naive ~side ~k ~max_leaves with
          | exception Incomplete n -> print_incomplete k "naive enumeration " n
          | exception Failure msg ->
              incr failures;
              Format.printf "exhaust thm1 side=%d k=%d: naive enumeration \
                             failed (%s)@."
                side k msg
          | naive ->
              let reduction =
                float_of_int naive.leaves /. float_of_int t.leaves
              in
              let classes = Hashtbl.length t.classes in
              let wb = width_bound k in
              let width_ok = t.max_width <= wb in
              Format.printf
                "exhaust thm1 b-force side=%d k=%d (T=0):@.\
                \  strategies (canonical): %d, all defeated or forced to b >= \
                 %d@.\
                \  decision classes:       %d (max depth %d)@.\
                \  presents per run:       %d..%d@.\
                \  strategies (naive):     %d over %d transcript decisions@.\
                \  equivalence reduction:  %.1fx@.\
                \  survivors:              %d canonical + %d naive@.\
                \  defeated outright:      %d@.\
                \  max region width:       %d (bound w(%d) = %d: %s)@."
                side k t.leaves k classes t.max_depth t.min_presents
                t.max_presents naive.leaves
                (Hashtbl.length naive.classes)
                reduction t.survivors naive.survivors t.defeated t.max_width k
                wb
                (if width_ok then "ok" else "EXCEEDED");
              if t.survivors > 0 || naive.survivors > 0 || not width_ok then
                incr failures;
              if reduction < min_reduction then begin
                incr failures;
                Format.printf "  reduction below required %.0fx@."
                  min_reduction
              end))
    ks;
  if !failures > 0 then 1 else if !incomplete > 0 then 2 else 0

let ks =
  Arg.(
    value & opt string "1,2"
    & info [ "k" ] ~doc:"Forced b-value targets (comma-separated).")

let side =
  Arg.(
    value & opt int 16
    & info [ "side" ] ~doc:"Virtual grid side (must fit w(k) columns).")

let max_leaves =
  Arg.(
    value & opt int 1_000_000
    & info [ "max-leaves" ]
        ~doc:
          "Stop a search whose strategy tree exceeds this many leaves; it \
           then reports INCOMPLETE.")

let min_reduction =
  Arg.(
    value & opt float 1.
    & info [ "min-reduction" ]
        ~doc:
          "Fail unless the naive/canonical leaf-count ratio (printed as the \
           equivalence reduction) reaches this factor.")

let cmd =
  Cmd.v
    (Cmd.info "exhaust"
       ~doc:
         "Exhaustively verify the Theorem 1 b-force lemma against every \
          deterministic strategy (naive transcript enumeration) and against \
          every component-local strategy (canonical mode, a strict subclass)"
       ~exits:
         (Cmd.Exit.info 0 ~doc:"every search completed with no refutation."
         :: Cmd.Exit.info 1
              ~doc:
                "a refutation (REFUTED, or a surviving strategy in the \
                 summary) or a failed check: a region wider than w(k), a \
                 reduction below --min-reduction."
         :: Cmd.Exit.info 2
              ~doc:"INCOMPLETE: a search exceeded --max-leaves (and none refuted)."
         :: List.filter (fun i -> Cmd.Exit.info_code i > 2) Cmd.Exit.defaults))
    Term.(const run $ ks $ side $ max_leaves $ min_reduction)

let () = exit (Cmd.eval' cmd)
