(* The job-kind catalog behind serve.exe and submit.exe — and the cell
   constructors behind the sweep_thm1/2/3 binaries, so a job submitted
   over the socket runs exactly the code a local sweep cell runs.

   A thmN job's payload IS the sweep cell key ("t=1 k=9 side=4000
   algo=ael", ...): the handler parses it back into parameters and
   produces the same result string the local sweep prints for that
   cell.  That shared representation is what the server's determinism
   contract rests on — `submit` output for a spec list is byte-identical
   to the serverless sweep over the same cells, whatever the server's
   --jobs/--chaos settings were.

   A payload that does not parse, or an unknown kind, raises — which the
   server maps to a typed "ERROR: ..." result, never a crash.

   thm1 cell constructors take ~memo (the game cache below; identical
   result strings either way — a hit replays the recorded report and its
   Stats observes).  The socket handler always runs memo-off: server
   results stay byte-identical to historical runs by construction, not
   just by the equivalence argument. *)

open Online_local
module Sweep = Harness.Sweep

let kinds = [ "thm1"; "thm2"; "thm3"; "fuzz" ]

(* ------------------------------- thm1 -------------------------------- *)

let thm1_algorithm name t =
  match name with
  | "greedy" -> Portfolio.greedy ()
  | "parity" -> Portfolio.hint_parity ()
  | "stripes" -> Portfolio.stripes3 ()
  | "ael" -> Portfolio.ael ~t ()
  | other -> failwith ("unknown algorithm: " ^ other)

(* Game-level report cache for thm1 cells.  The adversary's report is a
   pure function of (algorithm, executor radius, k, side, validate):
   the cell's [t] only enters through the algorithm's locality, so a
   t-axis sweep of a locality-independent algorithm replays one run per
   (k, side) — the cell text re-formats the cached report with its own
   t.  Sound for *any* deterministic algorithm, stateful or not: each
   live run instantiates a fresh instance, so the whole-run result
   carries no hidden state.  One table per process (the library is
   single-domain), never checkpointed (see lib/canon/README.md). *)
let thm1_reports : (string, Thm1_adversary.report) Hashtbl.t = Hashtbl.create 64

let thm1_run ?(memo = false) ~validate ~t ~k ~side ~algo () =
  let algorithm = thm1_algorithm algo t in
  let run_live () = Thm1_adversary.run ~validate ~n_side:side ~k ~algorithm () in
  let r =
    if not memo then run_live ()
    else begin
      let radius = algorithm.Models.Algorithm.locality ~n:(side * side) in
      let gkey =
        Printf.sprintf "thm1|%s|%d|%d|%d|%b" algorithm.Models.Algorithm.name
          radius k side validate
      in
      match Hashtbl.find_opt thm1_reports gkey with
      | Some r ->
          if Obs.Trace.on () then
            Obs.Trace.emit (Obs.Trace.Canon_hit { kind = "game"; key = gkey });
          (* Replay the Stats observes the live run would have made, so
             a --stats file is byte-identical to the memo-off run. *)
          if Obs.Stats.on () then begin
            Obs.Stats.observe "thm1.presented" r.Thm1_adversary.presented;
            Obs.Stats.observe "thm1.revealed" r.Thm1_adversary.revealed;
            Obs.Stats.observe "thm1.span_width" r.Thm1_adversary.width;
            Obs.Stats.observe "thm1.span_height" r.Thm1_adversary.height
          end;
          r
      | None ->
          let r = run_live () in
          Hashtbl.replace thm1_reports gkey r;
          r
    end
  in
  Format.asprintf
    "thm1 vs %s (T=%d) on %d^2 grid, b-target k=%d:@.  %a@.  guaranteed by \
     theory: %b (needs k > 4T+4)@.  max fitting k at this side/T: %d"
    algo t side k Thm1_adversary.pp_report r
    (Thm1_adversary.guaranteed ~t ~k)
    (Thm1_adversary.recommended_k ~n_side:side ~t)

let thm1_cell ?(memo = false) ~validate ~t ~k ~side ~algo () =
  {
    Sweep.key = Printf.sprintf "t=%d k=%d side=%d algo=%s" t k side algo;
    run = thm1_run ~memo ~validate ~t ~k ~side ~algo;
  }

let thm1_of_key payload =
  Scanf.sscanf payload "t=%d k=%d side=%d algo=%s" (fun t k side algo ->
      thm1_run ~validate:false ~t ~k ~side ~algo ())

(* ------------------------------- thm2 -------------------------------- *)

let thm2_wrap_of = function
  | "torus" -> `Toroidal
  | "cylinder" -> `Cylindrical
  | other -> failwith ("unknown wrap: " ^ other)

let thm2_algorithms =
  [ ("greedy", Portfolio.greedy); ("ael(T=1)", fun () -> Portfolio.ael ~t:1 ()) ]

let thm2_run ~side ~wrap ~algo () =
  let algorithm =
    match List.assoc_opt algo thm2_algorithms with
    | Some a -> a ()
    | None -> failwith ("unknown algorithm: " ^ algo)
  in
  let r = Thm2_adversary.run ~wrap:(thm2_wrap_of wrap) ~side ~algorithm () in
  Format.asprintf "thm2 %s side=%d vs %-12s %a" wrap side algo
    Thm2_adversary.pp_report r

let thm2_cell ~side ~wrap ~algo () =
  {
    Sweep.key = Printf.sprintf "wrap=%s side=%d algo=%s" wrap side algo;
    run = thm2_run ~side ~wrap ~algo;
  }

let thm2_of_key payload =
  Scanf.sscanf payload "wrap=%s side=%d algo=%s" (fun wrap side algo ->
      thm2_run ~side ~wrap ~algo ())

(* ------------------------------- thm3 -------------------------------- *)

let thm3_algorithms =
  [ ("greedy", Portfolio.greedy); ("gadget-rows", Portfolio.gadget_rows) ]

let thm3_run ~k ~gadgets ~algo () =
  let algorithm =
    match List.assoc_opt algo thm3_algorithms with
    | Some a -> a ()
    | None -> failwith ("unknown algorithm: " ^ algo)
  in
  let r = Thm3_adversary.run ~k ~gadgets ~algorithm () in
  Format.asprintf "thm3 k=%d gadgets=%d (n=%d) vs %-12s@.  %a" k gadgets
    (gadgets * k * k) algo Thm3_adversary.pp_report r

let thm3_cell ~k ~gadgets ~algo () =
  {
    Sweep.key = Printf.sprintf "k=%d gadgets=%d algo=%s" k gadgets algo;
    run = thm3_run ~k ~gadgets ~algo;
  }

let thm3_of_key payload =
  Scanf.sscanf payload "k=%d gadgets=%d algo=%s" (fun k gadgets algo ->
      thm3_run ~k ~gadgets ~algo ())

(* ------------------------------- fuzz -------------------------------- *)

(* Payload "target=NAME seed=N cases=N".  Cases run one after another
   on the job's worker; the one-line report matches bin/fuzz.exe's
   status line for the same (seed, cases). *)
let fuzz_of_payload payload =
  Scanf.sscanf payload "target=%s seed=%d cases=%d" (fun name seed cases ->
      match Proptest.Fuzz_targets.find name with
      | None -> failwith ("unknown fuzz target: " ^ name)
      | Some target -> (
          let config =
            { Proptest.Runner.default_config with Proptest.Runner.seed; cases }
          in
          let r = Proptest.Fuzz_run.run_target ~config target in
          match r.Proptest.Fuzz_run.status with
          | Proptest.Fuzz_run.Passed { cases } ->
              Printf.sprintf "%s: PASS (%d cases)" name cases
          | Proptest.Fuzz_run.Skipped reason ->
              Printf.sprintf "%s: SKIP (%s)" name reason
          | Proptest.Fuzz_run.Failed c ->
              Printf.sprintf "%s: FAIL (case %d, size %d, %d shrinks)\n  %s" name
                c.Proptest.Runner.case c.Proptest.Runner.size
                c.Proptest.Runner.shrink_steps
                (Format.asprintf "%a" Proptest.Runner.pp_counterexample c)))

(* ------------------------------ dispatch ------------------------------ *)

let handler ~kind ~payload =
  match kind with
  | "thm1" -> thm1_of_key payload
  | "thm2" -> thm2_of_key payload
  | "thm3" -> thm3_of_key payload
  | "fuzz" -> fuzz_of_payload payload
  | other -> failwith ("unknown job kind: " ^ other)
