(* The model hierarchy, executable: LOCAL and SLOCAL algorithms run
   natively and then simulated inside Online-LOCAL with identical
   outputs — the "sandwich" that makes Online-LOCAL lower bounds transfer
   to every model in the paper.

   Run with: dune exec examples/model_zoo.exe *)

module FH = Models.Fixed_host
module RS = Models.Run_stats

let () =
  Format.printf "=== LOCAL <= SLOCAL <= Online-LOCAL, executable ===@.@.";
  let grid = Topology.Grid2d.create Topology.Grid2d.Simple ~rows:8 ~cols:9 in
  let host = Topology.Grid2d.graph grid in

  (* A LOCAL algorithm (global stripes; locality ~ diameter). *)
  let local_algo = Models.Local_model.grid_stripes grid in
  let native = Models.Local_model.run ~host ~palette:3 local_algo in
  Format.printf "LOCAL stripes, native run: proper=%b@."
    (Colorings.Coloring.is_proper_total host native ~colors:3);

  let simulated =
    FH.run ~host ~palette:3
      ~algorithm:(Models.Local_model.to_online local_algo)
      ~order:(FH.orders ~all:host (`Random 5))
      ()
  in
  let agree = ref true in
  Grid_graph.Graph.iter_nodes host (fun v ->
      if
        Colorings.Coloring.get_exn native v
        <> Colorings.Coloring.get_exn simulated.RS.coloring v
      then agree := false);
  Format.printf "LOCAL simulated in Online-LOCAL: proper=%b, outputs identical=%b@.@."
    (RS.succeeded simulated ~colors:3 ~host)
    !agree;

  (* An SLOCAL algorithm (greedy) under an adversarial order. *)
  let order = FH.orders ~all:host (`Random 11) in
  let slocal_native = Models.Slocal.run ~host ~palette:5 ~order Models.Slocal.greedy in
  let slocal_sim =
    FH.run ~host ~palette:5
      ~algorithm:(Models.Slocal.to_online Models.Slocal.greedy)
      ~order ()
  in
  let agree2 = ref true in
  Grid_graph.Graph.iter_nodes host (fun v ->
      if
        Colorings.Coloring.get_exn slocal_native v
        <> Colorings.Coloring.get_exn slocal_sim.RS.coloring v
      then agree2 := false);
  Format.printf "SLOCAL greedy, native: proper=%b; simulated: proper=%b; identical=%b@.@."
    (Colorings.Coloring.is_proper_total host slocal_native ~colors:5)
    (RS.succeeded slocal_sim ~colors:5 ~host)
    !agree2;

  Format.printf
    "Because LOCAL and SLOCAL simulate into Online-LOCAL, the Omega(log n)@.";
  Format.printf
    "and Omega(sqrt n) adversaries of this library bound all three models@.";
  Format.printf
    "at once.  Dynamic-LOCAL, the paper's other model, is context only here.@."
