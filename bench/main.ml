(* Benchmark records: one mode per experiment record, each writing its
   BENCH_*.json in the working directory, and the CI gates that re-check
   a committed record against a fresh measurement.  With no mode it
   prints the list of modes to stderr and exits 2; bin/repro.exe prints
   the experiment tables.

   dune exec bench/main.exe -- --sweep-scaling
   dune exec bench/main.exe -- --stats-overhead-check *)

open Online_local

(* -------------------- shared BENCH_*.json schema ------------------ *)

(* Every record shares one envelope:
     {"bench": NAME, "meta": {cores, jobs_axis, ocaml_version, commit},
      "results": ...}
   so downstream tooling can parse every BENCH_*.json the same way. *)

(* The short hash of HEAD, with "-dirty" when the working tree has
   uncommitted changes: a record measured before its change is committed
   names the commit it sits on and says so. *)
let git_commit () =
  match
    Unix.open_process_in "git describe --always --dirty --abbrev=7 --exclude='*' 2>/dev/null"
  with
  | exception _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ | (exception _) -> "unknown")

let bench_record ~bench ~jobs_axis ~results =
  Obs.Json.Obj
    [
      ("bench", Obs.Json.String bench);
      ( "meta",
        Obs.Json.Obj
          [
            ("cores", Obs.Json.Int (Domain.recommended_domain_count ()));
            ("jobs_axis", Obs.Json.List (List.map (fun j -> Obs.Json.Int j) jobs_axis));
            ("ocaml_version", Obs.Json.String Sys.ocaml_version);
            ("commit", Obs.Json.String (git_commit ()));
          ] );
      ("results", results);
    ]

(* The jobs count of a parallel leg: the binaries' default (cores,
   capped at 8), floored at 2 so the leg is parallel on one core too. *)
let parallel_jobs = max 2 (min 8 (Domain.recommended_domain_count ()))

let write_bench_record path record =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Obs.Json.to_string record);
      Out_channel.output_char oc '\n');
  Format.printf "@.record written to %s@." path

(* --------------------- E8: sweep worker scaling -------------------- *)

(* A fixed Theorem-1 cell grid, heavy enough (~0.1 s/cell, transcript
   validation on) that worker start-up is negligible against cell cost.
   The same grid runs on 1/2/4/8 worker processes, as the sweep binaries
   run it; each run's output must equal the in-process serial reference,
   and wall-clock and worker CPU per jobs count are reported and written
   to BENCH_sweep_parallel.json. *)

let scaling_cells () =
  List.concat_map
    (fun t ->
      List.concat_map
        (fun k ->
          List.map
            (fun algo_name ->
              {
                Harness.Sweep.key =
                  Printf.sprintf "t=%d k=%d algo=%s" t k algo_name;
                run =
                  (fun () ->
                    let algorithm =
                      match algo_name with
                      | "ael" -> Portfolio.ael ~t ()
                      | _ -> Portfolio.greedy ()
                    in
                    let r =
                      Thm1_adversary.run ~validate:true ~n_side:30_000 ~k
                        ~algorithm ()
                    in
                    Format.asprintf "%a" Thm1_adversary.pp_report r);
              })
            [ "ael"; "greedy" ])
        [ 12; 13 ])
    [ 4; 6 ]

let sweep_scaling () =
  Format.printf
    "== E8: parallel sweep scaling (thm1 grid, %d cells, validate on, worker \
     processes) ==@.@."
    (List.length (scaling_cells ()));
  Format.printf "recommended_domain_count on this machine: %d@.@."
    (Domain.recommended_domain_count ());
  (* Wall seconds, the reaped workers' CPU seconds, and the output. *)
  let render ~isolation jobs =
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    let child_cpu () =
      let tm = Unix.times () in
      tm.Unix.tms_cutime +. tm.Unix.tms_cstime
    in
    let t0 = Unix.gettimeofday () and c0 = child_cpu () in
    Harness.Sweep.run ~jobs ~isolation ~ppf (scaling_cells ());
    (Unix.gettimeofday () -. t0, child_cpu () -. c0, Buffer.contents buf)
  in
  let _, _, reference = render ~isolation:`In_domain 1 in
  (* Warm-up run: pay allocator/code warmup outside the measurements. *)
  ignore (render ~isolation:`Process 1);
  let runs =
    List.map
      (fun jobs ->
        let t, cpu, out = render ~isolation:`Process jobs in
        if not (String.equal out reference) then
          failwith
            (Printf.sprintf
               "BENCH sweep_parallel: output at --jobs %d differs from the \
                in-process sweep — determinism contract broken"
               jobs);
        (jobs, t, cpu))
      [ 1; 2; 4; 8 ]
  in
  let base_t = match runs with (_, t, _) :: _ -> t | [] -> assert false in
  let rows = List.map (fun (jobs, t, cpu) -> (jobs, t, cpu, base_t /. t)) runs in
  Format.printf "%-8s %-12s %-12s %s@." "jobs" "seconds" "worker cpu" "speedup";
  List.iter
    (fun (jobs, t, cpu, s) -> Format.printf "%-8d %-12.3f %-12.3f %.2fx@." jobs t cpu s)
    rows;
  let results =
    Obs.Json.Obj
      [
        ( "grid",
          Obs.Json.String
            "thm1 t=4,6 k=12,13 side=30000 algo=ael,greedy validate=true" );
        ("cells", Obs.Json.Int (List.length (scaling_cells ())));
        ("isolation", Obs.Json.String "process");
        ("identical_output", Obs.Json.Bool true);
        ( "runs",
          Obs.Json.List
            (List.map
               (fun (jobs, t, cpu, s) ->
                 Obs.Json.Obj
                   [
                     ("jobs", Obs.Json.Int jobs);
                     ("seconds", Obs.Json.Float t);
                     ("worker_cpu_seconds", Obs.Json.Float cpu);
                     ("speedup", Obs.Json.Float s);
                   ])
               rows) );
      ]
  in
  write_bench_record "BENCH_sweep_parallel.json"
    (bench_record ~bench:"sweep_parallel"
       ~jobs_axis:(List.map (fun (jobs, _, _, _) -> jobs) rows)
       ~results)

(* ------------------ fuzz-harness throughput (E10) ----------------- *)

(* Cases/second of [Proptest.Fuzz_run.run_target] on three differential
   targets, in this process: the cases of a target run one after
   another, as on a fuzz.exe worker.  Every target must pass (a
   counterexample would make the timing meaningless), and the measured
   pass must report exactly what the warm-up pass did.  Across jobs
   counts, fuzz.exe's byte-identity is CI's (--jobs 1 vs --jobs 4). *)

let fuzz_throughput () =
  let targets = [ "proper-vs-brute"; "bvalue-cancel"; "thm3-game" ] in
  let cases = 150 in
  let config =
    { Proptest.Runner.default_config with Proptest.Runner.seed = 0xBE7; cases }
  in
  Format.printf "== E10: fuzz harness throughput (%d cases/target, seed %d) ==@.@."
    cases config.Proptest.Runner.seed;
  let describe report =
    match report.Proptest.Fuzz_run.status with
    | Proptest.Fuzz_run.Passed { cases } -> Printf.sprintf "PASS %d" cases
    | Proptest.Fuzz_run.Failed cex ->
        failwith
          (Printf.sprintf "BENCH fuzz_throughput: unexpected counterexample (%s)"
             cex.Proptest.Runner.replay)
    | Proptest.Fuzz_run.Skipped reason ->
        failwith ("BENCH fuzz_throughput: target skipped: " ^ reason)
  in
  let run () =
    List.map
      (fun name ->
        let target =
          match Proptest.Fuzz_targets.find name with
          | Some t -> t
          | None -> failwith ("BENCH fuzz_throughput: unknown target " ^ name)
        in
        let t0 = Unix.gettimeofday () in
        let report = Proptest.Fuzz_run.run_target ~config target in
        let dt = Unix.gettimeofday () -. t0 in
        (name, describe report, dt))
      targets
  in
  (* Warm-up pass outside the measurements. *)
  let warm = run () in
  let measured = run () in
  if List.map (fun (n, s, _) -> (n, s)) warm <> List.map (fun (n, s, _) -> (n, s)) measured
  then failwith "BENCH fuzz_throughput: a re-run reported differently";
  Format.printf "%-18s %-12s %s@." "target" "seconds" "cases/s";
  List.iter
    (fun (name, _, dt) ->
      Format.printf "%-18s %-12.3f %.0f@." name dt (float_of_int cases /. dt))
    measured;
  let results =
    Obs.Json.Obj
      [
        ("targets", Obs.Json.List (List.map (fun n -> Obs.Json.String n) targets));
        ("cases_per_target", Obs.Json.Int cases);
        ("seed", Obs.Json.Int config.Proptest.Runner.seed);
        ( "per_target",
          Obs.Json.List
            (List.map
               (fun (name, _, dt) ->
                 Obs.Json.Obj
                   [
                     ("target", Obs.Json.String name);
                     ("seconds", Obs.Json.Float dt);
                     ("cases_per_sec", Obs.Json.Float (float_of_int cases /. dt));
                   ])
               measured) );
      ]
  in
  write_bench_record "BENCH_fuzz_throughput.json"
    (bench_record ~bench:"fuzz_throughput" ~jobs_axis:[ 1 ] ~results)

(* --------------- process-isolation overhead (E11) ---------------- *)

(* What process isolation costs per sweep cell — a worker fork per jobs
   slot, and a request and a reply frame per cell: the same fixed thm1
   cell grid runs in-process and on worker processes (at jobs 1 and at
   the binaries' default), output byte-identity across all three is asserted
   (the Sweep isolation contract), and the per-cell premium of `Process
   over `In_domain at jobs 1 is reported.  Cells are deliberately light
   (~ms) so the premium is visible rather than drowned in cell cost —
   this is the worst case for worker processes. *)

let isolation_overhead () =
  let cells () =
    List.concat_map
      (fun k ->
        List.map
          (fun seed ->
            {
              Harness.Sweep.key = Printf.sprintf "k=%d seed=%d" k seed;
              run =
                (fun () ->
                  let r =
                    Thm1_adversary.run ~n_side:(200 + seed) ~k
                      ~algorithm:(Portfolio.greedy ()) ()
                  in
                  Format.asprintf "%a" Thm1_adversary.pp_report r);
            })
          [ 0; 1; 2; 3; 4; 5 ])
      [ 5; 6; 7; 8 ]
  in
  let n_cells = List.length (cells ()) in
  let jobs_axis = [ 1; parallel_jobs ] in
  Format.printf
    "== E11: process-isolation overhead (thm1 grid, %d light cells) ==@.@."
    n_cells;
  let render ~isolation jobs =
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    let t0 = Unix.gettimeofday () in
    Harness.Sweep.run ~jobs ~isolation ~ppf (cells ());
    let dt = Unix.gettimeofday () -. t0 in
    (dt, Buffer.contents buf)
  in
  let runs =
    [
      ("in_domain", `In_domain, 1);
      ("process", `Process, 1);
      ("process", `Process, List.nth jobs_axis 1);
    ]
  in
  (* Warm-up both backends outside the measurements. *)
  ignore (render ~isolation:`In_domain 1);
  ignore (render ~isolation:`Process 1);
  let measured =
    List.map
      (fun (name, isolation, jobs) ->
        let dt, out = render ~isolation jobs in
        (name, jobs, dt, out))
      runs
  in
  let base_out =
    match measured with (_, _, _, out) :: _ -> out | [] -> assert false
  in
  List.iter
    (fun (name, jobs, _, out) ->
      if not (String.equal out base_out) then
        failwith
          (Printf.sprintf
             "BENCH isolation_overhead: output of %s --jobs %d differs from \
              in_domain — isolation contract broken"
             name jobs))
    measured;
  let seconds name jobs =
    let _, _, dt, _ =
      List.find (fun (n, j, _, _) -> n = name && j = jobs) measured
    in
    dt
  in
  let dom1 = seconds "in_domain" 1 and proc1 = seconds "process" 1 in
  let per_cell_us = (proc1 -. dom1) /. float_of_int n_cells *. 1e6 in
  Format.printf "%-12s %-8s %-12s@." "isolation" "jobs" "seconds";
  List.iter
    (fun (name, jobs, dt, _) -> Format.printf "%-12s %-8d %-12.3f@." name jobs dt)
    measured;
  Format.printf "@.per-cell process-isolation premium at jobs 1: %+.0f us@." per_cell_us;
  let results =
    Obs.Json.Obj
      [
        ( "grid",
          Obs.Json.String "thm1 k=5..8 side=200..205 algo=greedy, light cells" );
        ("cells", Obs.Json.Int n_cells);
        ("identical_output", Obs.Json.Bool true);
        ("per_cell_premium_us", Obs.Json.Float per_cell_us);
        ( "runs",
          Obs.Json.List
            (List.map
               (fun (name, jobs, dt, _) ->
                 Obs.Json.Obj
                   [
                     ("isolation", Obs.Json.String name);
                     ("jobs", Obs.Json.Int jobs);
                     ("seconds", Obs.Json.Float dt);
                   ])
               measured) );
      ]
  in
  write_bench_record "BENCH_isolation_overhead.json"
    (bench_record ~bench:"isolation_overhead" ~jobs_axis ~results)

(* ------------------ job-server throughput (E12) ------------------- *)

(* What the serve.exe front door costs: a batch of trivial jobs is
   pushed through a forked server (every job on a supervised worker)
   three ways — chaos off, chaos on (fixed seed), and against
   a deliberately tiny admission queue — and jobs/s, the retry tallies,
   and the queue-rejection rate are reported.  Result byte-identity
   against a local map of the handler is asserted in every scenario:
   the resilience machinery must never buy throughput with wrong or
   lost answers. *)

let serve_throughput () =
  let module Server = Harness.Server in
  let module Client = Harness.Client in
  let fast_backoff = { Harness.Backoff.base = 0.002; max = 0.02; seed = 0x5EED } in
  let handler ~kind ~payload =
    match kind with
    | "rev" ->
        String.init (String.length payload) (fun i ->
            payload.[String.length payload - 1 - i])
    | other -> failwith ("unknown kind: " ^ other)
  in
  let n_jobs = 200 in
  let jobs = parallel_jobs in
  let specs =
    List.init n_jobs (fun i -> ("rev", Printf.sprintf "payload-%06d" i))
  in
  let scenario ~label ~chaos ~queue_limit ~window =
    let socket = Filename.temp_file "bench_serve" ".sock" in
    (try Sys.remove socket with Sys_error _ -> ());
    let config =
      {
        Server.default_config with
        Server.jobs;
        queue_limit;
        supervisor =
          {
            Harness.Supervisor.default_config with
            backoff = fast_backoff;
            kill_grace = 0.1;
          };
        chaos;
      }
    in
    match Unix.fork () with
    | 0 ->
        (try Server.run ~config ~socket ~handler () with _ -> ());
        Unix._exit 0
    | pid ->
        Fun.protect
          ~finally:(fun () ->
            (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] pid);
            try Sys.remove socket with Sys_error _ -> ())
          (fun () ->
            let t0 = Unix.gettimeofday () in
            let c =
              Client.run_campaign ~backoff:fast_backoff ~window ~socket specs
            in
            let dt = Unix.gettimeofday () -. t0 in
            List.iteri
              (fun i ((kind, payload), got) ->
                if not (String.equal (handler ~kind ~payload) got) then
                  failwith
                    (Printf.sprintf
                       "BENCH serve_throughput: %s result %d differs from the \
                        serverless baseline — determinism contract broken"
                       label i))
              (List.combine specs c.Client.results);
            (label, dt, c))
  in
  Format.printf
    "== E12: job-server throughput (%d trivial jobs, %d workers, proc \
     isolation) ==@.@."
    n_jobs jobs;
  let runs =
    [
      scenario ~label:"chaos_off" ~chaos:None ~queue_limit:256 ~window:32;
      scenario ~label:"chaos_on"
        ~chaos:(Some (Server.default_chaos ~seed:42))
        ~queue_limit:256 ~window:32;
      scenario ~label:"backpressure" ~chaos:None ~queue_limit:2 ~window:64;
    ]
  in
  Format.printf "%-14s %-10s %-10s %-11s %-11s %s@." "scenario" "jobs/s"
    "resubmits" "rejections" "reconnects" "rejection rate";
  let rows =
    List.map
      (fun (label, dt, c) ->
        let rate = float_of_int n_jobs /. dt in
        let submits = n_jobs + c.Client.resubmits in
        let rejection_rate =
          float_of_int c.Client.rejections /. float_of_int submits
        in
        Format.printf "%-14s %-10.0f %-10d %-11d %-11d %.3f@." label rate
          c.Client.resubmits c.Client.rejections c.Client.reconnects
          rejection_rate;
        (label, dt, rate, c, rejection_rate))
      runs
  in
  let results =
    Obs.Json.Obj
      [
        ("n_jobs", Obs.Json.Int n_jobs);
        ("isolation", Obs.Json.String "process");
        ("identical_output", Obs.Json.Bool true);
        ( "runs",
          Obs.Json.List
            (List.map
               (fun (label, dt, rate, c, rejection_rate) ->
                 Obs.Json.Obj
                   [
                     ("scenario", Obs.Json.String label);
                     ("seconds", Obs.Json.Float dt);
                     ("jobs_per_s", Obs.Json.Float rate);
                     ("resubmits", Obs.Json.Int c.Client.resubmits);
                     ("rejections", Obs.Json.Int c.Client.rejections);
                     ("reconnects", Obs.Json.Int c.Client.reconnects);
                     ("rejection_rate", Obs.Json.Float rejection_rate);
                   ])
               rows) );
      ]
  in
  write_bench_record "BENCH_serve_throughput.json"
    (bench_record ~bench:"serve_throughput" ~jobs_axis:[ jobs ] ~results)

(* ------------ E9/E14: observability overhead and its gate ----------- *)

(* What each observability hook costs on one guarded thm1 game against
   greedy (k = 6, side 400, about a millisecond):

     raw       unguarded, every hook disabled
     baseline  guarded, every hook disabled (the production default)
     control   the baseline again, timed in the same passes
     ndjson    guarded, NDJSON trace sink streaming to /dev/null
     flight    guarded, flight-recorder ring armed
     stats     guarded, stats registry enabled

   A disabled hook is a load per site, inseparable from measurement
   noise, so control against baseline is the floor any other reading
   must clear.  The NDJSON sink pays string formatting and a write per
   event; the flight recorder stores into a preallocated ring and
   touches disk only on anomaly, so it must stay within 10% of the
   baseline; stats are two integer accumulations per game.  Passes run
   round-robin and each subject keeps its minimum, so clock drift and
   allocator state cancel instead of biasing one side.

   --stats-overhead        measure and write BENCH_stats_overhead.json;
                           fail over the 10% flight budget
   --stats-overhead-check  assert the committed record honors the 10%
                           flight budget, then re-measure flight vs
                           baseline with a generous 35% bound (the CI
                           gate; shared runners are noisy) *)

let raw_thm1 () =
  ignore (Thm1_adversary.run ~n_side:400 ~k:6 ~algorithm:(Portfolio.greedy ()) ())

let guarded_thm1 () =
  let guard = Harness.Guard.create ~limits:Harness.Guard.default_limits () in
  let algorithm = Harness.Guard.algorithm guard (Portfolio.greedy ()) in
  ignore (Thm1_adversary.run ~n_side:400 ~k:6 ~algorithm ())

(* One timed measurement: [inner] runs of [f], seconds per run. *)
let measure_inner ~inner f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to inner do
    f ()
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int inner

(* One warm-up pass, then [passes] passes that each run every subject
   once; a subject's time is its minimum. *)
let round_robin_best ~passes subjects =
  List.iter (fun (_, pass) -> ignore (pass ())) subjects (* warm-up *);
  let best = Hashtbl.create 8 in
  for _ = 1 to passes do
    List.iter
      (fun (name, pass) ->
        let t = pass () in
        let prev = Option.value ~default:infinity (Hashtbl.find_opt best name) in
        Hashtbl.replace best name (Float.min prev t))
      subjects
  done;
  fun name -> Hashtbl.find best name

let flight_subject measure =
  Obs.Flight.with_sink ~program:"bench" ~path:"/dev/null" (fun () ->
      measure guarded_thm1)

let stats_subject measure =
  Obs.Stats.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Stats.disable ();
      Obs.Stats.reset ())
    (fun () -> measure guarded_thm1)

let stats_overhead () =
  let inner = 60 and passes = 8 in
  Format.printf
    "== E9/E14: observability overhead (thm1 vs greedy, k=6, side=400; best of \
     %d passes x %d runs) ==@.@."
    passes inner;
  let measure f = measure_inner ~inner f in
  let subjects =
    [
      ("raw", fun () -> measure raw_thm1);
      ("baseline", fun () -> measure guarded_thm1);
      ("control", fun () -> measure guarded_thm1);
      ( "ndjson",
        fun () ->
          Obs.Trace.with_sink ~program:"bench" ~path:"/dev/null" (fun () ->
              measure guarded_thm1) );
      ("flight", fun () -> flight_subject measure);
      ("stats", fun () -> stats_subject measure);
    ]
  in
  let t = round_robin_best ~passes subjects in
  let pct name = 100. *. (t name -. t "baseline") /. t "baseline" in
  Format.printf "%-28s %12s %12s@." "subject" "s/run" "overhead";
  List.iter
    (fun (name, _) ->
      Format.printf "%-28s %12.6f %+11.2f%%@." name (t name) (pct name))
    subjects;
  let guard_pct = 100. *. (t "baseline" -. t "raw") /. t "raw" in
  let flight_pct = pct "flight" in
  Format.printf "@.guard vs raw: %+.2f%%  control: %+.2f%%@." guard_pct (pct "control");
  Format.printf "flight budget: %+.2f%% of <= 10%%  (ndjson for scale: %+.2f%%)@."
    flight_pct (pct "ndjson");
  let results =
    Obs.Json.Obj
      [
        ("subject", Obs.Json.String "thm1 adversary vs greedy (k=6, side=400)");
        ("inner_runs", Obs.Json.Int inner);
        ("passes", Obs.Json.Int passes);
        ( "seconds_per_run",
          Obs.Json.Obj
            (List.map (fun (name, _) -> (name, Obs.Json.Float (t name))) subjects)
        );
        ( "overhead_pct",
          Obs.Json.Obj
            [
              ("guard_vs_raw", Obs.Json.Float guard_pct);
              ("control", Obs.Json.Float (pct "control"));
              ("ndjson", Obs.Json.Float (pct "ndjson"));
              ("flight", Obs.Json.Float flight_pct);
              ("stats", Obs.Json.Float (pct "stats"));
            ] );
        ("flight_budget_pct", Obs.Json.Float 10.);
      ]
  in
  write_bench_record "BENCH_stats_overhead.json"
    (bench_record ~bench:"stats_overhead" ~jobs_axis:[ 1 ] ~results);
  if flight_pct > 10. then
    failwith
      (Printf.sprintf
         "BENCH stats_overhead: flight recorder cost %+.2f%% exceeds the 10%% \
          budget"
         flight_pct)

let stats_overhead_check () =
  let path = "BENCH_stats_overhead.json" in
  let committed =
    match
      Obs.Json.of_string (In_channel.with_open_text path In_channel.input_all)
    with
    | json -> json
    | exception Sys_error msg ->
        failwith ("BENCH stats_overhead check: cannot read committed record: " ^ msg)
  in
  let committed_pct name =
    match
      Option.bind
        (Option.bind (Obs.Json.member "results" committed)
           (Obs.Json.member "overhead_pct"))
        (Obs.Json.member name)
      |> Fun.flip Option.bind Obs.Json.to_float_opt
    with
    | Some pct -> pct
    | None ->
        failwith ("BENCH stats_overhead check: no committed overhead_pct." ^ name)
  in
  Format.printf "== E14 regression gate (vs committed %s) ==@.@." path;
  let flight_committed = committed_pct "flight" in
  Format.printf "committed: flight %+.2f%%  stats %+.2f%%  ndjson %+.2f%%@."
    flight_committed (committed_pct "stats") (committed_pct "ndjson");
  if flight_committed > 10. then
    failwith
      (Printf.sprintf
         "BENCH stats_overhead check: committed flight overhead %+.2f%% \
          exceeds the 10%% budget — regenerate with --stats-overhead on a \
          quiet machine"
         flight_committed);
  (* Fresh spot-check with a generous bound: CI runners are shared and
     noisy, so this is a smoke alarm, not the primary claim (which the
     committed record carries). *)
  let inner = 20 and passes = 4 in
  let measure f = measure_inner ~inner f in
  let subjects =
    [
      ("baseline", fun () -> measure guarded_thm1);
      ("flight", fun () -> flight_subject measure);
    ]
  in
  let t = round_robin_best ~passes subjects in
  let fresh = 100. *. (t "flight" -. t "baseline") /. t "baseline" in
  Format.printf "fresh flight overhead: %+.2f%% (bound 35%%)@." fresh;
  if fresh > 35. then
    failwith
      (Printf.sprintf
         "BENCH stats_overhead check: fresh flight overhead %+.2f%% exceeds \
          the 35%% smoke bound"
         fresh);
  Format.printf "@.within budget@."

(* ---------------- game-step throughput (E13) ---------------------- *)

(* Steps/s and reveals/s of the adversary executors on the game hot
   path (the default path, with no trace sink or recorder installed),
   at two instance sizes per theorem.  "Steps" are
   presentation steps (the unit the paper's adversaries spend), and
   "reveals" are host nodes entering the revealed region — the two
   counters every executor already maintains, so the benchmark measures
   the production code path, not an instrumented twin.

   [meta.before] pins the measurements of the same configurations taken
   on a 1-core container immediately before the incremental executor
   core landed (batch ball-and-filter reveals, (int*int)-keyed
   hashtables); the fresh rates come from the host that runs the mode,
   so the speedups compare two machines.
   The committed record asserts the headline claim of the rewrite:
   thm3's per-reveal O(region) filtering is gone, so its step rate must
   beat the old executor by >= 10x.

   --game-steps        measure and write BENCH_game_steps.json
   --game-steps-check  measure the thm3 rows only and compare against
                       the committed BENCH_game_steps.json: exit 1 on a
                       > 20% steps/s regression (the CI gate) *)

let game_steps_before =
  (* steps/s of the pre-incremental executor, same configs, 1-core container *)
  [
    ("thm3 k=3 gadgets=32", 43_983.);
    ("thm3 k=3 gadgets=128", 14_370.);
    ("thm2 torus side=25", 39_633.);
    ("thm2 torus side=51", 10_307.);
    ("thm1 k=6 side=400", 285_691.);
    ("thm1 k=9 side=2000", 254_917.);
  ]

let game_steps_configs () =
  let greedy () = Portfolio.greedy () in
  let thm3 gadgets () =
    let r = Thm3_adversary.run ~k:3 ~gadgets ~algorithm:(greedy ()) () in
    (r.Thm3_adversary.presented, r.Thm3_adversary.revealed)
  in
  let thm2 side () =
    let r = Thm2_adversary.run ~wrap:`Toroidal ~side ~algorithm:(greedy ()) () in
    (r.Thm2_adversary.presented, r.Thm2_adversary.revealed)
  in
  let thm1 ~n_side ~k () =
    let r = Thm1_adversary.run ~n_side ~k ~algorithm:(greedy ()) () in
    (r.Thm1_adversary.presented, r.Thm1_adversary.revealed)
  in
  [
    ("thm3 k=3 gadgets=32", thm3 32);
    ("thm3 k=3 gadgets=128", thm3 128);
    ("thm2 torus side=25", thm2 25);
    ("thm2 torus side=51", thm2 51);
    ("thm1 k=6 side=400", thm1 ~n_side:400 ~k:6);
    ("thm1 k=9 side=2000", thm1 ~n_side:2000 ~k:9);
  ]

(* Whole-game repetitions under a fixed time budget: every config plays
   complete games (partial games would skew the step mix), the budget
   amortizes per-game setup, and a warm-up game runs outside the
   clock. *)
let game_steps_measure ?(budget = 0.5) f =
  ignore (f ());
  let t0 = Unix.gettimeofday () in
  let steps = ref 0 and reveals = ref 0 and games = ref 0 in
  while Unix.gettimeofday () -. t0 < budget do
    let p, r = f () in
    steps := !steps + p;
    reveals := !reveals + r;
    incr games
  done;
  let dt = Unix.gettimeofday () -. t0 in
  ( float_of_int !steps /. dt,
    float_of_int !reveals /. dt,
    !games )

let game_steps () =
  Format.printf
    "== E13: game-step throughput (whole games, no sink installed) ==@.@.";
  Format.printf "%-22s %12s %12s %8s %10s@." "config" "steps/s" "reveals/s"
    "games" "vs before";
  let rows =
    List.map
      (fun (name, f) ->
        let steps_s, reveals_s, games = game_steps_measure f in
        let before = List.assoc name game_steps_before in
        let ratio = steps_s /. before in
        Format.printf "%-22s %12.0f %12.0f %8d %9.1fx@." name steps_s
          reveals_s games ratio;
        (name, steps_s, reveals_s, games, before, ratio))
      (game_steps_configs ())
  in
  (* The old executor paid O(revealed region) per reveal, so its deficit
     grows with instance size: the large thm3 chain is where the
     complexity-class claim is falsifiable (the small chain shows ~4x —
     there is simply not enough region for O(region) to hurt). *)
  let thm3_ratio =
    let _, _, _, _, _, r =
      List.find (fun (name, _, _, _, _, _) -> name = "thm3 k=3 gadgets=128") rows
    in
    r
  in
  if thm3_ratio < 10. then
    failwith
      (Printf.sprintf
         "BENCH game_steps: thm3 (gadgets=128) steps/s is only %.1fx the \
          pre-incremental executor (>= 10x required)"
         thm3_ratio);
  let results =
    Obs.Json.Obj
      [
        ("unit", Obs.Json.String "whole games, presented steps and revealed nodes per second");
        ( "runs",
          Obs.Json.List
            (List.map
               (fun (name, steps_s, reveals_s, games, before, ratio) ->
                 Obs.Json.Obj
                   [
                     ("config", Obs.Json.String name);
                     ("steps_per_s", Obs.Json.Float steps_s);
                     ("reveals_per_s", Obs.Json.Float reveals_s);
                     ("games", Obs.Json.Int games);
                     ("before_steps_per_s", Obs.Json.Float before);
                     ("speedup", Obs.Json.Float ratio);
                   ])
               rows) );
      ]
  in
  let record =
    match bench_record ~bench:"game_steps" ~jobs_axis:[ 1 ] ~results with
    | Obs.Json.Obj fields ->
        Obs.Json.Obj
          (List.map
             (fun (k, v) ->
               match (k, v) with
               | "meta", Obs.Json.Obj meta ->
                   ( "meta",
                     Obs.Json.Obj
                       (meta
                       @ [
                           ( "before",
                             Obs.Json.Obj
                               (List.map
                                  (fun (name, s) ->
                                    (name, Obs.Json.Float s))
                                  game_steps_before) );
                         ]) )
               | _ -> (k, v))
             fields)
    | other -> other
  in
  write_bench_record "BENCH_game_steps.json" record

(* The CI regression gate: measure the two thm3 configs fresh and fail
   on a > 20% steps/s drop against the committed record.  Only thm3 is
   re-measured — it is the config whose rate the incremental core
   changed by an order of magnitude, so it is also the one a regression
   in the frontier/packed layers shows up in first. *)
let game_steps_check () =
  let path = "BENCH_game_steps.json" in
  let committed =
    match
      Obs.Json.of_string (In_channel.with_open_text path In_channel.input_all)
    with
    | json -> json
    | exception Sys_error msg ->
        failwith ("BENCH game_steps check: cannot read committed record: " ^ msg)
  in
  let committed_rate config =
    let runs =
      match
        Option.bind (Obs.Json.member "results" committed)
          (Obs.Json.member "runs")
      with
      | Some (Obs.Json.List runs) -> runs
      | _ -> failwith "BENCH game_steps check: no results.runs in record"
    in
    match
      List.find_map
        (fun run ->
          match Obs.Json.member "config" run with
          | Some (Obs.Json.String name) when String.equal name config ->
              Option.bind (Obs.Json.member "steps_per_s" run)
                Obs.Json.to_float_opt
          | _ -> None)
        runs
    with
    | Some rate -> rate
    | None ->
        failwith ("BENCH game_steps check: no committed row for " ^ config)
  in
  Format.printf "== E13 regression gate (thm3 vs committed %s) ==@.@." path;
  let failures =
    List.filter_map
      (fun (name, f) ->
        if not (String.length name >= 4 && String.sub name 0 4 = "thm3") then
          None
        else begin
          let fresh, _, _ = game_steps_measure f in
          let committed = committed_rate name in
          let ratio = fresh /. committed in
          Format.printf "%-22s fresh=%.0f committed=%.0f (%.2fx)@." name fresh
            committed ratio;
          if ratio < 0.8 then Some name else None
        end)
      (game_steps_configs ())
  in
  match failures with
  | [] -> Format.printf "@.within 20%% of the committed record@."
  | names ->
      failwith
        (Printf.sprintf
           "BENCH game_steps check: steps/s regressed > 20%% vs committed \
            record on: %s"
           (String.concat ", " names))

(* -------------- cross-cell memoization speedup (E15) --------------- *)

(* The game-cache speedup claim: on a dense t-axis thm1 sweep of
   locality-independent algorithms, the cache behind
   Jobs_catalog.thm1_cell collapses the campaign to one live adversary
   run per (algorithm, k, side) — every other cell replays the recorded
   report and re-formats it with its own t.  Wall-clock of the same
   sweep is measured on live cells (Jobs_catalog.thm1_run, the path
   served jobs take) and on the sweep's cached cells, and byte-identity
   of the rendered output is asserted: the cache may only change
   wall-clock.

   The cached sweep is measured twice: cold (the first cached sweep in
   this process, so the cache starts empty and the sweep itself pays
   the live runs — the headline number) and warm (a second sweep in the
   same process, all hits).

   --canon-memo        measure and write BENCH_canon_memo.json; fail
                       unless the cold speedup reaches 2x
   --canon-memo-check  assert the committed record claims >= 2x, then
                       re-measure fresh with a generous 1.5x bound
                       (the CI gate; shared runners are noisy) *)

let canon_memo_grid = "thm1 t=1..12 k=12 side=16000 algo=greedy,stripes validate=true"

let canon_memo_axes =
  List.concat_map
    (fun t -> List.map (fun algo -> (t, algo)) [ "greedy"; "stripes" ])
    (List.init 12 (fun i -> i + 1))

let canon_memo_cells ~cached () =
  List.map
    (fun (t, algo) ->
      let cell = Jobs_catalog.thm1_cell ~validate:true ~t ~k:12 ~side:16_000 ~algo () in
      if cached then cell
      else
        { cell with run = Jobs_catalog.thm1_run ~validate:true ~t ~k:12 ~side:16_000 ~algo })
    canon_memo_axes

(* The game cache runs the first cell of each distinct game key live and
   replays the rest.  Its key is (algorithm name, radius, k, side,
   validate), and only the first two vary over this grid. *)
let canon_memo_misses =
  List.map
    (fun (t, algo) ->
      let a = Jobs_catalog.thm1_algorithm algo t in
      (a.Models.Algorithm.name, a.Models.Algorithm.locality ~n:(16_000 * 16_000)))
    canon_memo_axes
  |> List.sort_uniq compare |> List.length

let canon_memo_render ~cached () =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let t0 = Unix.gettimeofday () in
  Harness.Sweep.run ~jobs:1 ~ppf (canon_memo_cells ~cached ());
  let dt = Unix.gettimeofday () -. t0 in
  (dt, Buffer.contents buf)

(* One measurement pass: live (best of [passes]; live cells never read
   or write the cache), then cached cold, then cached warm.  Returns
   (live, cold, warm) after asserting all three outputs byte-equal. *)
let canon_memo_measure ~passes () =
  ignore (canon_memo_render ~cached:false ());
  let live_t, live_out =
    List.fold_left
      (fun (best_t, out) _ ->
        let t, o = canon_memo_render ~cached:false () in
        if t < best_t then (t, o) else (best_t, out))
      (canon_memo_render ~cached:false ())
      (List.init (passes - 1) Fun.id)
  in
  let cold_t, cold_out = canon_memo_render ~cached:true () in
  let warm_t, warm_out = canon_memo_render ~cached:true () in
  List.iter
    (fun (label, out) ->
      if not (String.equal out live_out) then
        failwith
          (Printf.sprintf
             "BENCH canon_memo: %s output differs from the live cells — the \
              game cache's byte-identity contract is broken"
             label))
    [ ("cached (cold)", cold_out); ("cached (warm)", warm_out) ];
  (live_t, cold_t, warm_t)

let canon_memo () =
  let cells = List.length canon_memo_axes in
  let misses = canon_memo_misses in
  let hits = cells - misses in
  Format.printf "== E15: cross-cell memoization (%s; %d cells) ==@.@."
    canon_memo_grid cells;
  let live_t, cold_t, warm_t = canon_memo_measure ~passes:3 () in
  let speedup = live_t /. cold_t in
  Format.printf "%-16s %-12s %s@." "mode" "seconds" "speedup";
  Format.printf "%-16s %-12.3f %.2fx@." "live" live_t 1.0;
  Format.printf "%-16s %-12.3f %.2fx@." "cached (cold)" cold_t speedup;
  Format.printf "%-16s %-12.3f %.2fx@." "cached (warm)" warm_t (live_t /. warm_t);
  Format.printf "game cache: %d hits, %d misses (live runs)@." hits misses;
  let results =
    Obs.Json.Obj
      [
        ("grid", Obs.Json.String canon_memo_grid);
        ("cells", Obs.Json.Int cells);
        ("identical_output", Obs.Json.Bool true);
        ("game_hits", Obs.Json.Int hits);
        ("game_misses", Obs.Json.Int misses);
        ("speedup", Obs.Json.Float speedup);
        ( "runs",
          Obs.Json.List
            (List.map
               (fun (mode, t, s) ->
                 Obs.Json.Obj
                   [
                     ("mode", Obs.Json.String mode);
                     ("seconds", Obs.Json.Float t);
                     ("speedup", Obs.Json.Float s);
                   ])
               [
                 ("live", live_t, 1.0);
                 ("cached-cold", cold_t, speedup);
                 ("cached-warm", warm_t, live_t /. warm_t);
               ]) );
      ]
  in
  write_bench_record "BENCH_canon_memo.json"
    (bench_record ~bench:"canon_memo" ~jobs_axis:[ 1 ] ~results);
  if speedup < 2.0 then
    failwith
      (Printf.sprintf
         "BENCH canon_memo: cold speedup %.2fx is below the 2x claim" speedup)

let canon_memo_check () =
  let path = "BENCH_canon_memo.json" in
  let committed =
    match
      Obs.Json.of_string (In_channel.with_open_text path In_channel.input_all)
    with
    | json -> json
    | exception Sys_error msg ->
        failwith ("BENCH canon_memo check: cannot read committed record: " ^ msg)
  in
  let committed_speedup =
    match
      Option.bind (Obs.Json.member "results" committed)
        (Obs.Json.member "speedup")
      |> Fun.flip Option.bind Obs.Json.to_float_opt
    with
    | Some s -> s
    | None -> failwith "BENCH canon_memo check: no committed results.speedup"
  in
  Format.printf "== E15 regression gate (vs committed %s) ==@.@." path;
  Format.printf "committed cold speedup: %.2fx@." committed_speedup;
  if committed_speedup < 2.0 then
    failwith
      (Printf.sprintf
         "BENCH canon_memo check: committed speedup %.2fx is below the 2x \
          claim — regenerate with --canon-memo on a quiet machine"
         committed_speedup);
  let live_t, cold_t, _ = canon_memo_measure ~passes:2 () in
  let fresh = live_t /. cold_t in
  Format.printf "fresh cold speedup: %.2fx (bound 1.5x; %d live runs)@." fresh
    canon_memo_misses;
  if fresh < 1.5 then
    failwith
      (Printf.sprintf
         "BENCH canon_memo check: fresh speedup %.2fx is below the 1.5x \
          smoke bound"
         fresh);
  Format.printf "@.within budget@."


(* The first mode named on the command line runs. *)
let modes =
  [
    ("--sweep-scaling", "E8: worker scaling, writes BENCH_sweep_parallel.json", sweep_scaling);
    ("--fuzz-throughput", "E10: fuzz cases/s, writes BENCH_fuzz_throughput.json", fuzz_throughput);
    ( "--isolation-overhead",
      "E11: worker-process premium, writes BENCH_isolation_overhead.json",
      isolation_overhead );
    ( "--serve-throughput",
      "E12: job-server jobs/s, writes BENCH_serve_throughput.json",
      serve_throughput );
    ("--game-steps", "E13: game steps/s, writes BENCH_game_steps.json", game_steps);
    ("--game-steps-check", "E13 gate: fresh thm3 steps/s vs the record", game_steps_check);
    ("--canon-memo-check", "E15 gate: the record claims >= 2x, fresh >= 1.5x", canon_memo_check);
    ("--canon-memo", "E15: game-cache speedup, writes BENCH_canon_memo.json", canon_memo);
    ( "--stats-overhead-check",
      "E14 gate: the record's flight <= 10%, fresh <= 35%",
      stats_overhead_check );
    ( "--stats-overhead",
      "E9/E14: observability overhead, writes BENCH_stats_overhead.json",
      stats_overhead );
  ]

let () =
  match List.find_opt (fun (flag, _, _) -> Array.exists (String.equal flag) Sys.argv) modes with
  | Some (_, _, run) -> run ()
  | None ->
      prerr_endline "usage: bench/main.exe MODE, where MODE is one of";
      List.iter (fun (flag, doc, _) -> Printf.eprintf "  %-24s %s\n" flag doc) modes;
      exit 2
