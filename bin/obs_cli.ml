(* Shared flag plumbing for the binaries in this directory.

   Every binary but exhaust, submit and trace_report takes the same
   observability flags (submit records nothing: Harness.Client emits no
   Obs event):

     --trace FILE   stream NDJSON trace events to FILE
     --stats FILE   write drained streaming stats (JSON) to FILE
     --flight FILE  binary flight-recorder ring, flushed on anomaly

   repro, fuzz, serve and the sweep_thm* binaries run every cell,
   driver, target or job on a supervised worker process
   (Harness.Supervisor), one warm worker per --jobs slot, and take the
   same execution flags, parsed and validated here so "--jobs 0" fails
   identically everywhere, naming the flag:

     --jobs N             worker processes (default: cores, capped at 8)
     --retries N          extra attempts per task whose worker crashed
     --cell-timeout-ms MS per-attempt wall-clock watchdog (in serve, the
                          deadline of jobs submitted without one)

   The watchdog escalates SIGTERM -> SIGKILL after
   Harness.Supervisor.default_config's kill_grace (0.5 s).

   The five sweep_thm* binaries share one front end (sweep_term and
   run_sweep): the flags above plus

     --checkpoint FILE    append finished cells to FILE
     --resume             replay the cells already in the checkpoint

   and exit 130 with "interrupted; finished cells are checkpointed" on
   SIGINT.  Input that Harness.Sweep.run refuses before it runs any cell
   (a repeated axis value, hence a duplicate cell key; a --resume
   checkpoint in another format version) ends the sweep with one
   "<program>: <message>" line on stderr and exit 1.

   A worker's trace events reach --trace and --flight through its
   parent, tagged with the worker's slot (see Obs.Flight.relay).

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
           --jobs count.")

let flight =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight" ] ~docv:"FILE"
        ~doc:
          "Flight recorder: retain trace events in an in-memory ring \
           (binary encoding, see trace_report) and flush them to $(docv) \
           only on anomaly — misbehavior, quarantine, watchdog kill, \
           fault injection, or a failed audit.  A worker process ships \
           the events of a task that hit one, tagged with its slot.")

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

(* Sweeps are memory-bandwidth-bound well before wide fan-out pays
   off, hence the cap. *)
let default_jobs = max 1 (min 8 (Domain.recommended_domain_count ()))

let jobs =
  Arg.(
    value
    & opt positive_int default_jobs
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker processes: at most $(docv) tasks run at once, each slot on \
           one warm worker (default: available cores, capped at 8).  Output \
           bytes never depend on $(docv).")

let retries =
  Arg.(
    value
    & opt non_negative_int Harness.Supervisor.default_config.Harness.Supervisor.retries
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Extra attempts after a task's worker dies abnormally, before the \
           task is quarantined.  0 disables retrying.")

let cell_timeout_ms =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "cell-timeout-ms" ] ~docv:"MS"
        ~doc:
          "Per-attempt wall-clock watchdog; a task exceeding it is killed \
           and certified unresponsive.  In serve, the deadline of every job \
           submitted without its own.  Unset: no watchdog.")

type exec = { jobs : int; supervisor : Harness.Supervisor.config }

let supervisor_term =
  let make retries cell_timeout_ms =
    {
      Harness.Supervisor.default_config with
      Harness.Supervisor.retries;
      timeout = Option.map (fun ms -> float_of_int ms /. 1000.) cell_timeout_ms;
    }
  in
  Term.(const make $ retries $ cell_timeout_ms)

let exec_term =
  let make jobs supervisor = { jobs; supervisor } in
  Term.(const make $ jobs $ supervisor_term)

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

(* ------------------------------- sweeps -------------------------------- *)

type sweep = {
  checkpoint : string option;
  resume : bool;
  exec : exec;
  trace : string option;
  stats : string option;
  flight : string option;
}

let sweep_term =
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~doc:"Append finished cells to this file.")
  in
  let resume =
    Arg.(value & flag & info [ "resume" ] ~doc:"Replay cells already in the checkpoint.")
  in
  let make checkpoint resume exec trace stats flight =
    { checkpoint; resume; exec; trace; stats; flight }
  in
  Term.(const make $ checkpoint $ resume $ exec_term $ trace $ stats $ flight)

let run_sweep ~program s cells =
  with_observability ~program ~trace:s.trace ~stats:s.stats ~flight:s.flight
  @@ fun () ->
  match
    Harness.Sweep.run ~resume:s.resume ?checkpoint:s.checkpoint ~jobs:s.exec.jobs
      ~isolation:`Process ~supervisor:s.exec.supervisor ~ppf:Format.std_formatter
      cells
  with
  | () -> 0
  | exception Harness.Sweep.Interrupted ->
      Format.eprintf "interrupted; finished cells are checkpointed@.";
      130
  | exception Invalid_argument msg ->
      (* Sweep.run raises it only on its input, before any cell runs. *)
      Printf.eprintf "%s: %s\n%!" program msg;
      1
