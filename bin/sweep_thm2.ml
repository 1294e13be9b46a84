(* E2 sweep: the two-row attack on wrapped grids, over a parameter grid.

   dune exec bin/sweep_thm2.exe -- --side 21,51 --wrap torus,cylinder \
     --jobs 4 --checkpoint sweep_thm2.ckpt *)

open Cmdliner

let run sides wraps checkpoint resume exec trace stats flight =
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
  Obs_cli.with_observability ~program:"sweep_thm2" ~trace ~stats ~flight
  @@ fun () ->
  match
    Harness.Sweep.run ~resume ?checkpoint ~jobs:exec.Obs_cli.jobs
      ~isolation:exec.Obs_cli.isolation ~supervisor:exec.Obs_cli.supervisor
      ~ppf:Format.std_formatter cells
  with
  | () -> 0
  | exception Harness.Sweep.Interrupted ->
      Format.eprintf "interrupted; finished cells are checkpointed@.";
      130

let sides =
  Arg.(value & opt string "21" & info [ "side" ] ~doc:"Grid sides (odd, comma-separated).")

let wraps =
  Arg.(value & opt string "torus" & info [ "wrap" ] ~doc:"torus|cylinder (comma-separated).")

let checkpoint =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~doc:"Append finished cells to this file.")

let resume =
  Arg.(value & flag & info [ "resume" ] ~doc:"Replay cells already in the checkpoint.")

let cmd =
  Cmd.v
    (Cmd.info "sweep_thm2" ~doc:"Theorem 2 adversary sweep")
    Term.(
      const run $ sides $ wraps $ checkpoint $ resume $ Obs_cli.exec_term
      $ Obs_cli.trace $ Obs_cli.stats $ Obs_cli.flight)

let () = exit (Cmd.eval' cmd)
