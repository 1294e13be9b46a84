(* E2 sweep: the two-row attack on wrapped grids, over a parameter grid.

   dune exec bin/sweep_thm2.exe -- --side 21,51 --wrap torus,cylinder \
     --jobs 4 --checkpoint sweep_thm2.ckpt *)

open Cmdliner

let run sides wraps sweep =
  let cells =
    List.concat_map
      (fun wrap ->
        List.concat_map
          (fun side ->
            List.map
              (fun (algo, _) -> Jobs_catalog.thm2_cell ~side ~wrap ~algo ())
              Jobs_catalog.thm2_algorithms)
          (Harness.Sweep.int_axis ~flag:"--side" sides))
      (Harness.Sweep.string_axis ~flag:"--wrap" wraps)
  in
  Obs_cli.run_sweep ~program:"sweep_thm2" sweep cells

let sides =
  Arg.(value & opt string "21" & info [ "side" ] ~doc:"Grid sides (odd, comma-separated).")

let wraps =
  Arg.(value & opt string "torus" & info [ "wrap" ] ~doc:"torus|cylinder (comma-separated).")

let cmd =
  Cmd.v
    (Cmd.info "sweep_thm2" ~doc:"Theorem 2 adversary sweep")
    Term.(const run $ sides $ wraps $ Obs_cli.sweep_term)

let () = exit (Cmd.eval' cmd)
