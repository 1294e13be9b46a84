(* E1 sweep: play the Theorem 1 adversary over a parameter grid.

   Axes are comma-separated; every combination is one cell.  With
   --checkpoint FILE each finished cell is flushed to FILE, and --resume
   replays completed cells verbatim, so a killed sweep can be restarted
   and still print byte-identical final output.  --jobs N runs cells on
   N worker processes; output order and resume behavior do not depend
   on N.  Each worker keeps the thm1 game cache (see jobs_catalog.ml):
   a cell whose game already ran there replays its report, so greedy
   and stripes play one game per (k, side) however long the t-axis.

   dune exec bin/sweep_thm1.exe -- -t 1,2 -k 6,9 --side 4000 --algo ael \
     --jobs 4 --checkpoint sweep_thm1.ckpt
   dune exec bin/sweep_thm1.exe -- ... --checkpoint sweep_thm1.ckpt --resume *)

open Cmdliner

let run ts ks sides algos validate sweep =
  let cells =
    List.concat_map
      (fun t ->
        List.concat_map
          (fun k ->
            List.concat_map
              (fun side ->
                List.map
                  (fun algo ->
                    Jobs_catalog.thm1_cell ~validate ~t ~k ~side ~algo ())
                  (Harness.Sweep.string_axis ~flag:"--algo" algos))
              (Harness.Sweep.int_axis ~flag:"--side" sides))
          (Harness.Sweep.int_axis ~flag:"-k" ks))
      (Harness.Sweep.int_axis ~flag:"-t" ts)
  in
  Obs_cli.run_sweep ~program:"sweep_thm1" sweep cells

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

let cmd =
  Cmd.v
    (Cmd.info "sweep_thm1" ~doc:"Theorem 1 adversary sweep")
    Term.(const run $ ts $ ks $ sides $ algos $ validate $ Obs_cli.sweep_term)

let () = exit (Cmd.eval' cmd)
