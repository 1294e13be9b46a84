(* E3 sweep: the gadget-chain attack, over a parameter grid.

   dune exec bin/sweep_thm3.exe -- -k 3 --gadgets 9,33 \
     --jobs 4 --checkpoint sweep_thm3.ckpt *)

open Cmdliner

let run ks gadget_counts checkpoint resume exec trace stats flight =
  let cells =
    List.concat_map
      (fun k ->
        List.concat_map
          (fun gadgets ->
            List.map
              (fun (algo, _) -> Jobs_catalog.thm3_cell ~k ~gadgets ~algo ())
              Jobs_catalog.thm3_algorithms)
          (Harness.Sweep.int_axis ~flag:"--gadgets" gadget_counts))
      (Harness.Sweep.int_axis ~flag:"-k" ks)
  in
  Obs_cli.with_observability ~program:"sweep_thm3" ~trace ~stats ~flight
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

let ks = Arg.(value & opt string "3" & info [ "k" ] ~doc:"Gadget sides (>= 3, comma-separated).")

let gadget_counts =
  Arg.(value & opt string "9" & info [ "gadgets" ] ~doc:"Chain lengths (>= 3, comma-separated).")

let checkpoint =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~doc:"Append finished cells to this file.")

let resume =
  Arg.(value & flag & info [ "resume" ] ~doc:"Replay cells already in the checkpoint.")

let cmd =
  Cmd.v
    (Cmd.info "sweep_thm3" ~doc:"Theorem 3 adversary sweep")
    Term.(
      const run $ ks $ gadget_counts $ checkpoint $ resume $ Obs_cli.exec_term
      $ Obs_cli.trace $ Obs_cli.stats $ Obs_cli.flight)

let () = exit (Cmd.eval' cmd)
