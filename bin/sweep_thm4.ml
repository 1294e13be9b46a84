(* E4 sweep: minimal working locality of the Theorem 4 algorithm, over
   one host family and a size axis.

   dune exec bin/sweep_thm4.exe -- --host grid --side 24,32 \
     --jobs 4 --checkpoint sweep_thm4.ckpt *)

open Online_local
open Cmdliner

let measure name host ~k ~oracle ~seeds =
  let nn = Grid_graph.Graph.n host in
  let orders = Measure.adversarial_orders ~host ~seeds in
  let make ~t = Kp1_coloring.make ~k ~locality:(fun ~n:_ -> t) () in
  let t_max = Kp1_coloring.default_locality ~k ~n:nn in
  match
    Measure.min_locality_for_success ~host ~palette:(k + 1) ~orders ~make ~oracle
      ~t_max ()
  with
  | Some t_star ->
      Format.asprintf "%s: n=%d T*=%d prescribed=%d T*/log2(n)=%.2f" name nn t_star
        t_max
        (float_of_int t_star /. (log (float_of_int nn) /. log 2.))
  | None -> Format.asprintf "%s: n=%d failed even at T=%d" name nn t_max

let cell host_name ~size ~seeds =
  let key = Printf.sprintf "host=%s size=%d seeds=%d" host_name size (List.length seeds) in
  let run () =
    match host_name with
    | "grid" ->
        let g = Topology.Grid2d.create Topology.Grid2d.Simple ~rows:size ~cols:size in
        measure
          (Printf.sprintf "grid %dx%d (k=2)" size size)
          (Topology.Grid2d.graph g) ~k:2
          ~oracle:(Oracles.grid_bipartition g)
          ~seeds
    | "tri" ->
        let t = Topology.Tri_grid.create ~side:size in
        measure
          (Printf.sprintf "tri side=%d (k=3)" size)
          (Topology.Tri_grid.graph t) ~k:3 ~oracle:(Oracles.tri_grid t) ~seeds
    | "ktree" ->
        let kt = Topology.Ktree.random ~k:2 ~n:size ~seed:42 in
        measure
          (Printf.sprintf "2-tree n=%d (k=3)" size)
          (Topology.Ktree.graph kt) ~k:3 ~oracle:(Oracles.ktree kt) ~seeds
    | other -> failwith ("unknown host: " ^ other)
  in
  { Harness.Sweep.key; run }

let run host_name sides ns seeds sweep =
  let seeds = List.init seeds (fun i -> i + 1) in
  (* grid/tri scale by side, ktree by node count. *)
  let sizes =
    if host_name = "ktree" then Harness.Sweep.int_axis ~flag:"-n" ns
    else Harness.Sweep.int_axis ~flag:"--side" sides
  in
  let cells = List.map (fun size -> cell host_name ~size ~seeds) sizes in
  Obs_cli.run_sweep ~program:"sweep_thm4" sweep cells

let host = Arg.(value & opt string "grid" & info [ "host" ] ~doc:"grid|tri|ktree.")

let sides =
  Arg.(value & opt string "24" & info [ "side" ] ~doc:"Sides (grid/tri, comma-separated).")

let ns = Arg.(value & opt string "300" & info [ "n" ] ~doc:"Node counts (ktree, comma-separated).")
let seeds = Arg.(value & opt int 2 & info [ "seeds" ] ~doc:"Random orders to include.")

let cmd =
  Cmd.v
    (Cmd.info "sweep_thm4" ~doc:"Theorem 4 locality scaling sweep")
    Term.(const run $ host $ sides $ ns $ seeds $ Obs_cli.sweep_term)

let () = exit (Cmd.eval' cmd)
