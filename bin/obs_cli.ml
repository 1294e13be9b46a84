(* Shared flag plumbing for the binaries in this directory.

   Every binary but exhaust and trace_report takes the same
   observability flags:

     --trace FILE   stream NDJSON trace events to FILE
     --stats FILE   write drained streaming stats (JSON) to FILE
     --flight FILE  binary flight-recorder ring, flushed on anomaly

   repro, fuzz and the sweep_thm* binaries take the same execution
   flags, parsed and validated here so "--jobs 0" fails identically
   everywhere, naming the flag:

     --jobs N             worker domains (in-domain) / children (proc)
     --isolate MODE       domain (default) | proc
     --retries N          proc mode: extra attempts per crashed cell
     --kill-grace-ms MS   proc mode: SIGTERM -> SIGKILL escalation gap
     --cell-timeout-ms MS proc mode: per-attempt wall-clock watchdog

   serve takes them too, but runs every job in a supervised child: its
   --isolate accepts only proc, the proc-mode flags always apply, and
   --cell-timeout-ms is the deadline of jobs submitted without one.

   The stats file is written even on the interrupted (exit 130) path:
   a Ctrl-C'd sweep still reports what it counted.

   Observers never raise into or steer the code they observe: a
   --trace, --flight or --stats file that cannot be written (a full
   disk, say) leaves the run and its stdout untouched, and the run ends
   with one "<program>: --trace FILE: <error>" line per failed file on
   stderr and exit status 1. *)

open Cmdliner

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Stream NDJSON trace events to $(docv) (see trace_report).")

let stats =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats" ] ~docv:"FILE"
        ~doc:
          "Stream per-game statistics (count/mean/variance/min/max and \
           quantile sketches) and write the drained snapshot to $(docv) \
           as JSON after the run.  The bytes are identical at every \
           --jobs count and isolation mode.")

let flight =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight" ] ~docv:"FILE"
        ~doc:
          "Flight recorder: retain trace events in an in-memory ring \
           (binary encoding, see trace_report) and flush them to $(docv) \
           only on anomaly — misbehavior, quarantine, watchdog kill, \
           fault injection, or a failed audit.")

(* ----------------------- execution-backend flags ----------------------- *)

let int_at_least lo what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some n ->
        Error
          (`Msg (Printf.sprintf "expected %s, got %d" what n))
    | None ->
        Error
          (`Msg (Printf.sprintf "expected %s, got %s" what (String.escaped s)))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let positive_int = int_at_least 1 "a positive integer"
let non_negative_int = int_at_least 0 "a non-negative integer"

let jobs =
  Arg.(
    value
    & opt positive_int (Harness.Pool.default_jobs ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Workers: domains under --isolate domain, child processes under \
           --isolate proc and in serve (default: available cores, capped at \
           8).  Output bytes never depend on $(docv).")

let isolate =
  Arg.(
    value
    & opt (enum [ ("domain", `In_domain); ("proc", `Process) ]) `In_domain
    & info [ "isolate" ] ~docv:"MODE"
        ~doc:
          "Cell isolation: $(b,domain) runs cells on worker domains in this \
           process; $(b,proc) forks each cell into a supervised child \
           process that survives kills, retries crashed cells with seeded \
           backoff, and quarantines crash-looping ones.")

let retries =
  Arg.(
    value
    & opt non_negative_int Harness.Supervisor.default_config.Harness.Supervisor.retries
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "With --isolate proc, and always in serve: extra attempts after a \
           cell's worker dies abnormally, before the cell is quarantined.  \
           0 disables retrying.")

let kill_grace_ms =
  Arg.(
    value
    & opt positive_int 500
    & info [ "kill-grace-ms" ] ~docv:"MS"
        ~doc:
          "With --isolate proc, and always in serve: how long a timed-out \
           child gets between SIGTERM and the SIGKILL escalation.")

let cell_timeout_ms =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "cell-timeout-ms" ] ~docv:"MS"
        ~doc:
          "With --isolate proc, and always in serve: per-attempt wall-clock \
           watchdog; a cell exceeding it is killed and certified \
           unresponsive.  In serve, the deadline of every job submitted \
           without its own.  Unset: no watchdog.")

type exec = {
  jobs : int;
  isolation : Harness.Sweep.isolation;
  supervisor : Harness.Supervisor.config;
}

let supervisor_term =
  let make retries kill_grace_ms cell_timeout_ms =
    {
      Harness.Supervisor.default_config with
      Harness.Supervisor.retries;
      kill_grace = float_of_int kill_grace_ms /. 1000.;
      timeout = Option.map (fun ms -> float_of_int ms /. 1000.) cell_timeout_ms;
    }
  in
  Term.(const make $ retries $ kill_grace_ms $ cell_timeout_ms)

let exec_term =
  let make jobs isolation supervisor = { jobs; isolation; supervisor } in
  Term.(const make $ jobs $ isolate $ supervisor_term)

let with_observability ~program ~trace:trace_path ?(stats = None)
    ?(flight = None) f =
  if stats <> None then Obs.Stats.enable ();
  let failed = ref false in
  let report flag path msg =
    Printf.eprintf "%s: %s %s: %s\n%!" program flag path msg;
    failed := true
  in
  let on_error flag = Option.map (fun path -> report flag path) in
  let code =
    Obs.Trace.with_sink_opt ~program ?on_error:(on_error "--trace" trace_path) trace_path
    @@ fun () ->
    Obs.Flight.with_sink_opt ~program ?on_error:(on_error "--flight" flight) flight f
  in
  (match stats with
  | None -> ()
  | Some path -> (
      let snap = Obs.Stats.drain () in
      try
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc
              (Obs.Json.to_string (Obs.Stats.snapshot_to_json snap));
            Out_channel.output_char oc '\n';
            (* Flushed here so a failed write raises instead of being
               swallowed by the close. *)
            Out_channel.flush oc)
      with Sys_error msg -> report "--stats" path msg));
  if !failed && code = 0 then 1 else code
