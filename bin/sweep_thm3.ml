(* E3 sweep: the gadget-chain attack, over a parameter grid.

   dune exec bin/sweep_thm3.exe -- -k 3 --gadgets 9,33 \
     --jobs 4 --checkpoint sweep_thm3.ckpt *)

open Cmdliner

let run ks gadget_counts sweep =
  Obs_cli.run_sweep ~program:"sweep_thm3" sweep @@ fun () ->
  List.concat_map
    (fun k ->
      List.concat_map
        (fun gadgets ->
          List.map
            (fun (algo, _) -> Jobs_catalog.thm3_cell ~k ~gadgets ~algo ())
            Jobs_catalog.thm3_algorithms)
        (Harness.Sweep.int_axis ~flag:"--gadgets" gadget_counts))
    (Harness.Sweep.int_axis ~flag:"-k" ks)

let ks = Arg.(value & opt string "3" & info [ "k" ] ~doc:"Gadget sides (>= 3, comma-separated).")

let gadget_counts =
  Arg.(value & opt string "9" & info [ "gadgets" ] ~doc:"Chain lengths (>= 3, comma-separated).")

let cmd =
  Cmd.v
    (Cmd.info "sweep_thm3" ~doc:"Theorem 3 adversary sweep")
    Term.(const run $ ks $ gadget_counts $ Obs_cli.sweep_term)

let () = exit (Cmd.eval' cmd)
