(* The Theorem 1 adversary in action: force any low-locality algorithm to
   draw a directed row path with a large b-value, close a cycle with
   nonzero b-value, and exhibit the inevitable monochromatic edge.

   Run with: dune exec examples/adversary_demo.exe *)

open Online_local

let attack name algorithm ~n_side ~k =
  let r = Thm1_adversary.run ~n_side ~k ~algorithm () in
  Format.printf "  %-28s %a@." name Thm1_adversary.pp_report r

let () =
  Format.printf "=== Theorem 1: 3-coloring grids needs Omega(log n) locality ===@.@.";
  Format.printf "Playing the Lemma 3.6 adversary (b-value target k = 9,@.";
  Format.printf "guaranteed to defeat any locality-1 algorithm since 9 > 4*1+4):@.@.";
  List.iter
    (fun (name, algo) -> attack name algo ~n_side:400 ~k:9)
    [
      ("greedy first-fit", Portfolio.greedy ());
      ("hint-parity", Portfolio.hint_parity ());
      ("stripes (r+c) mod 3", Portfolio.stripes3 ());
      ("AEL 3-coloring, T=1", Portfolio.ael ~t:1 ());
    ];
  Format.printf "@.The same adversary at a small b-value target loses to the paper's@.";
  Format.printf "algorithm once its locality is provisioned for the instance:@.@.";
  attack "AEL 3-coloring, T=8 (k=3)" (Portfolio.ael ~t:8 ()) ~n_side:400 ~k:3;
  Format.printf "@.The survivor's closing cycle has b-value exactly 0 — Lemma 3.4@.";
  Format.printf "observed live: a proper coloring cannot close a nonzero-b cycle.@.@.";
  (* A small survivor run, drawn: the closing rectangle between the two
     rows (digits = colors, 'o' = revealed but never asked, ' ' = unseen). *)
  let small =
    Thm1_adversary.run ~snapshot:true ~n_side:300 ~k:2
      ~algorithm:(Portfolio.ael ~t:4 ())
      ()
  in
  (match small.Thm1_adversary.snapshot with
  | Some picture ->
      Format.printf "Endgame window of a small survivor run (k=2 vs AEL T=4):@.%s@.@."
        picture
  | None -> ());
  Format.printf "Defeat frontier: smallest b-value target that defeats AEL at locality T@.";
  Format.printf "(the linear growth in T is the executable face of Theta(log n)):@.@.";
  List.iter
    (fun t ->
      match
        Measure.min_defeating_b ~n_side:4000
          ~algorithm:(fun () -> Portfolio.ael ~t ())
          ~k_max:12
      with
      | Some k -> Format.printf "  T = %d  defeated at k = %d@." t k
      | None -> Format.printf "  T = %d  survived k <= 12@." t)
    [ 1; 2; 3; 4; 5; 6 ]
