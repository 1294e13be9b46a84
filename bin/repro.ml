(* Regenerate every experiment table (EXPERIMENTS.md).

   dune exec bin/repro.exe            -- full tables
   dune exec bin/repro.exe -- --quick -- bench-sized tables
   dune exec bin/repro.exe -- --jobs 4   -- render drivers on 4 worker
                                         processes (output is
                                         byte-identical) *)

let run quick exec trace stats flight =
  Obs_cli.with_observability ~program:"repro" ~trace ~stats ~flight @@ fun () ->
  Experiments.run_all ~quick ~jobs:exec.Obs_cli.jobs
    ~supervisor:exec.Obs_cli.supervisor Format.std_formatter;
  Format.printf "@.";
  0

open Cmdliner

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Shrink parameter ranges to bench sizes.")

let cmd =
  Cmd.v
    (Cmd.info "repro" ~doc:"Reproduce all experiments of the paper")
    Term.(
      const run $ quick $ Obs_cli.exec_term $ Obs_cli.trace $ Obs_cli.stats
      $ Obs_cli.flight)

let () = exit (Cmd.eval' cmd)
