(* Pit any portfolio algorithm against any adversary.

   dune exec bin/play.exe -- --game thm1-grid --algo ael -t 2 --size 500
   dune exec bin/play.exe -- --game thm1-grid --algo ael --paranoid --deadline 30
   dune exec bin/play.exe -- --list

   --max-calls and --deadline bound the algorithm; every other guard
   limit is Harness.Guard.default_limits'. *)

open Online_local
open Cmdliner

let algorithm_of name t =
  match name with
  | "greedy" -> Portfolio.greedy ()
  | "parity" -> Portfolio.hint_parity ()
  | "stripes" -> Portfolio.stripes3 ()
  | "gadget-rows" -> Portfolio.gadget_rows ()
  | "ael" -> Portfolio.ael ~t ()
  | "kp1" -> Portfolio.kp1 ~k:2 ~t ()
  | other -> failwith ("unknown algorithm: " ^ other)

let run list_games game_name algo_name t n paranoid max_calls deadline trace stats
    flight =
  if list_games then begin
    List.iter
      (fun g -> Format.printf "%-18s %s@." g.Game.name g.Game.description)
      Game.games;
    0
  end
  else
    match Game.find game_name with
    | None ->
        Format.printf "unknown game %s; try --list@." game_name;
        1
    | Some g ->
        Obs_cli.with_observability ~program:"play" ~trace ~stats ~flight
        @@ fun () ->
        let limits =
          { Harness.Guard.default_limits with max_color_calls = max_calls; deadline }
        in
        let verdict = g.Game.play ~paranoid ~limits ~n (algorithm_of algo_name t) in
        Format.printf "%a@." Game.pp_verdict verdict;
        0

let list_games = Arg.(value & flag & info [ "list" ] ~doc:"List the games.")
let game = Arg.(value & opt string "thm1-grid" & info [ "game" ] ~doc:"Game name.")

let algo =
  Arg.(
    value
    & opt string "ael"
    & info [ "algo" ] ~doc:"greedy|parity|stripes|gadget-rows|ael|kp1.")

let t = Arg.(value & opt int 1 & info [ "t"; "locality" ] ~doc:"Locality for ael/kp1.")
let n = Arg.(value & opt int 400 & info [ "n"; "size" ] ~doc:"Instance size (per game).")

let paranoid =
  Arg.(
    value & flag
    & info [ "paranoid" ] ~doc:"Audit the adversary's transcript (thm1; slow).")

let max_calls =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-calls" ] ~doc:"Color-call budget for the algorithm.")

let deadline =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~doc:"Wall-clock deadline in seconds.")

let cmd =
  Cmd.v
    (Cmd.info "play" ~doc:"Pit an algorithm against a lower-bound adversary")
    Term.(
      const run $ list_games $ game $ algo $ t $ n $ paranoid $ max_calls $ deadline
      $ Obs_cli.trace $ Obs_cli.stats $ Obs_cli.flight)

let () = exit (Cmd.eval' cmd)
