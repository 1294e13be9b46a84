(* E5 sweep: the Lemma 5.7 reduction on G_k, over a locality axis.

   dune exec bin/sweep_thm5.exe -- -k 3 --base-side 6 -t 4,8 \
     --jobs 4 --checkpoint sweep_thm5.ckpt *)

open Online_local
open Cmdliner

let cell ~k ~base_side ~t =
  {
    Harness.Sweep.key = Printf.sprintf "k=%d base-side=%d t=%d" k base_side t;
    run =
      (fun () ->
        let base =
          Topology.Grid2d.graph
            (Topology.Grid2d.create Topology.Grid2d.Simple ~rows:base_side
               ~cols:base_side)
        in
        let lay = Topology.Layered.create ~base ~k in
        let host = Topology.Layered.graph lay in
        let inner = Kp1_coloring.make ~k:(k + 1) ~locality:(fun ~n:_ -> t) () in
        let reduced = Thm5_reduction.reduce ~inner in
        let order = Models.Fixed_host.orders ~all:host (`Random 17) in
        let outcome =
          Models.Fixed_host.run ~oracle:(Oracles.layered lay) ~host ~palette:(k + 1)
            ~algorithm:reduced ~order ()
        in
        Format.asprintf "thm5 reduction on G_%d (n=%d, inner T=%d): %a@.  proper=%b" k
          (Grid_graph.Graph.n host)
          t Models.Run_stats.pp_outcome outcome
          (Models.Run_stats.succeeded outcome ~colors:(k + 1) ~host));
  }

let run ks base_sides ts sweep =
  let cells =
    List.concat_map
      (fun k ->
        List.concat_map
          (fun base_side ->
            List.map
              (fun t -> cell ~k ~base_side ~t)
              (Harness.Sweep.int_axis ~flag:"-t" ts))
          (Harness.Sweep.int_axis ~flag:"--base-side" base_sides))
      (Harness.Sweep.int_axis ~flag:"-k" ks)
  in
  Obs_cli.run_sweep ~program:"sweep_thm5" sweep cells

let ks = Arg.(value & opt string "3" & info [ "k" ] ~doc:"Layer counts of G_k (>= 2).")

let base_sides =
  Arg.(value & opt string "6" & info [ "base-side" ] ~doc:"Base grid sides.")

let ts = Arg.(value & opt string "8" & info [ "t" ] ~doc:"Inner algorithm localities.")

let cmd =
  Cmd.v
    (Cmd.info "sweep_thm5" ~doc:"Theorem 5 reduction sweep")
    Term.(const run $ ks $ base_sides $ ts $ Obs_cli.sweep_term)

let () = exit (Cmd.eval' cmd)
