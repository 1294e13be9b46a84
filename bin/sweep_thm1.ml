(* E1 sweep: play the Theorem 1 adversary over a parameter grid.

   Axes are comma-separated; every combination is one cell.  With
   --checkpoint FILE each finished cell is flushed to FILE, and --resume
   replays completed cells verbatim, so a killed sweep can be restarted
   and still print byte-identical final output.  --jobs N runs cells on
   N domains; output order and resume behavior do not depend on N.

   dune exec bin/sweep_thm1.exe -- -t 1,2 -k 6,9 --side 4000 --algo ael \
     --jobs 4 --checkpoint sweep_thm1.ckpt
   dune exec bin/sweep_thm1.exe -- ... --checkpoint sweep_thm1.ckpt --resume *)

open Cmdliner

let run ts ks sides algos validate checkpoint resume exec trace stats flight
    memo =
  let cells =
    List.concat_map
      (fun t ->
        List.concat_map
          (fun k ->
            List.concat_map
              (fun side ->
                List.map
                  (fun algo ->
                    Jobs_catalog.thm1_cell ~memo ~validate ~t ~k ~side ~algo ())
                  (Harness.Sweep.string_axis ~flag:"--algo" algos))
              (Harness.Sweep.int_axis ~flag:"--side" sides))
          (Harness.Sweep.int_axis ~flag:"-k" ks))
      (Harness.Sweep.int_axis ~flag:"-t" ts)
  in
  Obs_cli.with_observability ~program:"sweep_thm1" ~trace ~stats ~flight
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

let ts =
  Arg.(value & opt string "1" & info [ "t" ] ~doc:"Algorithm localities (comma-separated).")

let ks = Arg.(value & opt string "9" & info [ "k" ] ~doc:"Adversary b-value targets.")
let sides = Arg.(value & opt string "4000" & info [ "side" ] ~doc:"Grid sides sqrt(n).")

let algos =
  Arg.(
    value
    & opt string "ael"
    & info [ "algo" ] ~doc:"greedy|parity|stripes|ael (comma-separated).")

let validate =
  Arg.(value & flag & info [ "validate" ] ~doc:"Replay-check the transcript (slow).")

let checkpoint =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~doc:"Append finished cells to this file.")

let resume =
  Arg.(value & flag & info [ "resume" ] ~doc:"Replay cells already in the checkpoint.")

let memo =
  Arg.(
    value
    & flag
    & info [ "memo" ]
        ~doc:
          "Game cache: a cell whose (algorithm, radius, k, side, validate) \
           already ran on this worker replays that run's report instead of \
           playing it again (see lib/canon/README.md).  Result bytes and \
           --stats files are identical with and without $(b,--memo) at \
           every --jobs count, isolation mode, and resume history; the \
           cache is per-process and never checkpointed.")

let cmd =
  Cmd.v
    (Cmd.info "sweep_thm1" ~doc:"Theorem 1 adversary sweep")
    Term.(
      const run $ ts $ ks $ sides $ algos $ validate $ checkpoint $ resume
      $ Obs_cli.exec_term $ Obs_cli.trace $ Obs_cli.stats $ Obs_cli.flight
      $ memo)

let () = exit (Cmd.eval' cmd)
