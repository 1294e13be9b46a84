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

   The thm1 game cache.  A thm1 sweep cell ([thm1_cell]) answers through
   [thm1_reports], a table of whole adversary reports keyed on
   (algorithm name, radius, k, side, validate).  A cell's t enters only
   through the algorithm's radius, so on a dense t-axis a
   locality-independent algorithm (greedy, stripes) plays one live run
   per (k, side) on each worker, and every other cell re-formats the
   cached report with its own t; AEL's radius moves with t, so its cells
   never hit.  Sound for any deterministic algorithm, stateful or not:
   a live run always instantiates a fresh instance, so the whole-run
   report carries no hidden state.  Each hit emits a
   [Canon_hit {kind = "game"}] trace event, which trace_report tallies
   under "memo cache hits".

   The cache may only change wall-clock.  Sweep text, checkpoint files
   and --stats snapshots are the bytes the live path ([thm1_run])
   prints, at every --jobs count, in-process and on workers, and after
   any kill/resume history:
   - a hit replays the Obs.Stats observes the live run would have made;
   - the table is plain state in the process that runs the cell (the
     library is single-domain): per worker, never checkpointed, never
     shipped across the supervisor wire, so a resumed sweep or a
     replaced worker starts cold — slower, never different.

   Served jobs ([handler]) always run live: a server worker outlives any
   one sweep, so a cache there would grow with the job stream.  The
   tests that pin all this are test_catalog's "memo variants agree" and
   "served thm1 jobs run live", and test_supervisor's memo cases. *)

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

let thm1_text ~t ~k ~side ~algo r =
  Format.asprintf
    "thm1 vs %s (T=%d) on %d^2 grid, b-target k=%d:@.  %a@.  guaranteed by \
     theory: %b (needs k > 4T+4)@.  max fitting k at this side/T: %d"
    algo t side k Thm1_adversary.pp_report r
    (Thm1_adversary.guaranteed ~t ~k)
    (Thm1_adversary.recommended_k ~n_side:side ~t)

(* The live path: one fresh game per call. *)
let thm1_run ~validate ~t ~k ~side ~algo () =
  let algorithm = thm1_algorithm algo t in
  thm1_text ~t ~k ~side ~algo
    (Thm1_adversary.run ~validate ~n_side:side ~k ~algorithm ())

let thm1_reports : (string, Thm1_adversary.report) Hashtbl.t = Hashtbl.create 64

let thm1_cached ~validate ~t ~k ~side ~algo () =
  let algorithm = thm1_algorithm algo t in
  let radius = algorithm.Models.Algorithm.locality ~n:(side * side) in
  let gkey =
    Printf.sprintf "thm1|%s|%d|%d|%d|%b" algorithm.Models.Algorithm.name radius
      k side validate
  in
  let r =
    match Hashtbl.find_opt thm1_reports gkey with
    | Some r ->
        if Obs.Trace.on () then
          Obs.Trace.emit (Obs.Trace.Canon_hit { kind = "game"; key = gkey });
        (* the observes the live run would have made *)
        if Obs.Stats.on () then begin
          Obs.Stats.observe "thm1.presented" r.Thm1_adversary.presented;
          Obs.Stats.observe "thm1.revealed" r.Thm1_adversary.revealed;
          Obs.Stats.observe "thm1.span_width" r.Thm1_adversary.width;
          Obs.Stats.observe "thm1.span_height" r.Thm1_adversary.height
        end;
        r
    | None ->
        let r = Thm1_adversary.run ~validate ~n_side:side ~k ~algorithm () in
        Hashtbl.replace thm1_reports gkey r;
        r
  in
  thm1_text ~t ~k ~side ~algo r

let thm1_cell ~validate ~t ~k ~side ~algo () =
  {
    Sweep.key = Printf.sprintf "t=%d k=%d side=%d algo=%s" t k side algo;
    run = thm1_cached ~validate ~t ~k ~side ~algo;
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
   on the job's worker; the first line is Fuzz_run.status_line, which
   bin/fuzz.exe prints for the same (seed, cases). *)
let fuzz_of_payload payload =
  Scanf.sscanf payload "target=%s seed=%d cases=%d" (fun name seed cases ->
      match Proptest.Fuzz_targets.find name with
      | None -> failwith ("unknown fuzz target: " ^ name)
      | Some target -> (
          let config =
            { Proptest.Runner.default_config with Proptest.Runner.seed; cases }
          in
          let r = Proptest.Fuzz_run.run_target ~config target in
          let line = Proptest.Fuzz_run.status_line r in
          match r.Proptest.Fuzz_run.status with
          | Proptest.Fuzz_run.Failed c ->
              Printf.sprintf "%s\n  %s" line
                (Format.asprintf "%a" Proptest.Runner.pp_counterexample c)
          | Proptest.Fuzz_run.Passed _ | Proptest.Fuzz_run.Skipped _ -> line))

(* ------------------------------ dispatch ------------------------------ *)

let handler ~kind ~payload =
  match kind with
  | "thm1" -> thm1_of_key payload
  | "thm2" -> thm2_of_key payload
  | "thm3" -> thm3_of_key payload
  | "fuzz" -> fuzz_of_payload payload
  | other -> failwith ("unknown job kind: " ^ other)
