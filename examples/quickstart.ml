(* Quickstart: 3-color a grid in the Online-LOCAL model with the
   O(log n)-locality algorithm of Theorem 4 / Akbari et al. (ICALP 2023),
   against a random adversarial presentation order.

   Run with: dune exec examples/quickstart.exe *)

open Online_local

let () =
  let side = 80 in
  let grid = Topology.Grid2d.create Topology.Grid2d.Simple ~rows:side ~cols:side in
  let host = Topology.Grid2d.graph grid in
  let n = Grid_graph.Graph.n host in

  (* The algorithm: (k+1)-coloring for k = 2 (bipartite hosts), at its
     prescribed locality 3 (k-1) ceil(log2 n). *)
  let stats = Kp1_coloring.fresh_stats () in
  let algorithm = Kp1_coloring.ael_bipartite ~stats () in
  Format.printf "host: %dx%d grid (n = %d), palette {0,1,2}@." side side n;
  Format.printf "algorithm: %s, locality T(n) = %d@." algorithm.Models.Algorithm.name
    (algorithm.Models.Algorithm.locality ~n);

  (* The adversary: a seeded random presentation order. *)
  let order = Models.Fixed_host.orders ~all:host (`Random 2024) in
  let outcome = Models.Fixed_host.run ~host ~palette:3 ~algorithm ~order () in
  Format.printf "outcome: %a@." Models.Run_stats.pp_outcome outcome;
  Format.printf "proper 3-coloring: %b@."
    (Models.Run_stats.succeeded outcome ~colors:3 ~host);
  Format.printf "group merges: %d, type changes: %d, barrier nodes: %d@."
    stats.Kp1_coloring.merges stats.Kp1_coloring.type_changes
    stats.Kp1_coloring.wave_commits;

  (* The same algorithm squeezed to locality 6: groups now coexist and
     merge, and the parity-flip barriers (color 2) become visible. *)
  let stats6 = Kp1_coloring.fresh_stats () in
  let squeezed = Kp1_coloring.ael_bipartite ~locality:(fun ~n:_ -> 6) ~stats:stats6 () in
  let outcome6 = Models.Fixed_host.run ~host ~palette:3 ~algorithm:squeezed ~order () in
  Format.printf "@.squeezed to T = 6: proper=%b merges=%d type changes=%d barrier nodes=%d@."
    (Models.Run_stats.succeeded outcome6 ~colors:3 ~host)
    stats6.Kp1_coloring.merges stats6.Kp1_coloring.type_changes
    stats6.Kp1_coloring.wave_commits;

  (* Show a window of the squeezed run's coloring around a parity-flip
     barrier — the third color (drawn as '2') that Algorithm 1 lays down
     when two groups with clashing parities merge. *)
  let coloring6 = outcome6.Models.Run_stats.coloring in
  let barrier =
    let found = ref None in
    for v = side * side - 1 downto 0 do
      if Colorings.Coloring.get coloring6 v = Some 2 then found := Some v
    done;
    !found
  in
  (match barrier with
  | None -> Format.printf "@.(no barriers were needed on this order)@."
  | Some v ->
      let r0 = min (max 0 ((v / side) - 10)) (side - 20) in
      let c0 = min (max 0 ((v mod side) - 10)) (side - 20) in
      Format.printf "@.20x20 window around a flip barrier (color 2), squeezed run:@.";
      Format.printf "%s@."
        (Topology.Render.region ~rows:(r0, r0 + 19) ~cols:(c0, c0 + 19) (fun r c ->
             match
               Colorings.Coloring.get coloring6 (Topology.Grid2d.node grid ~row:r ~col:c)
             with
             | Some col -> `Colored col
             | None -> `Unseen)))
