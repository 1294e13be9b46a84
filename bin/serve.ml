(* The resilient job server front door: accept thm1/thm2/thm3/fuzz jobs
   over a Unix-domain (or loopback TCP) socket and run each on a
   supervised worker process.

     dune exec bin/serve.exe -- --socket /tmp/jobs.sock --jobs 4 \
       --journal jobs.journal
     dune exec bin/serve.exe -- --socket tcp:7421
     dune exec bin/serve.exe -- --socket /tmp/jobs.sock --chaos 42

   Admission is bounded (Harness.Server.default_config's queue_limit,
   64 jobs admitted but not yet running; excess submits get a typed
   rejection), duplicate submits dedup on the content-derived job id,
   and each job runs on the sweeps' worker engine (Harness.Supervisor):
   at most --jobs jobs at a time, one warm worker process each, forked
   when a job first needs it and replaced when it dies, is killed, or
   its job raised or spawned a domain; crashed jobs retry with seeded
   backoff (--retries) and then quarantine, and the watchdog kills a
   job over its deadline, or over --cell-timeout-ms for a job that
   carries none, escalating SIGTERM -> SIGKILL after 0.5 s.
   --isolate proc is accepted and changes nothing (command lines that
   pass it keep working); --isolate domain is a usage error.  SIGTERM
   drains gracefully (in-flight jobs finish, queued jobs stay in the
   --journal), and --resume replays the journal after a crash or drain:
   finished jobs become cached results, accepted-but-unfinished jobs
   re-enter the queue; a journal in another format version is refused
   with one "serve: <message>" line and exit 1, left as it was.  --chaos SEED injects deterministic faults
   (dropped connections, partial/truncated frames, worker SIGKILLs) to
   rehearse exactly those failure paths. *)

open Cmdliner

let run socket journal resume chaos (exec : Obs_cli.exec) () trace stats flight =
  Obs_cli.with_observability ~program:"serve" ~trace ~stats ~flight @@ fun () ->
  let jobs = exec.Obs_cli.jobs in
  let config =
    {
      Harness.Server.default_config with
      Harness.Server.jobs;
      supervisor = exec.Obs_cli.supervisor;
      chaos = Option.map (fun seed -> Harness.Server.default_chaos ~seed) chaos;
    }
  in
  match
    Harness.Server.run ~config ?journal ~resume ~socket
      ~on_ready:(fun () ->
        Format.eprintf "serve: listening on %s (%d jobs, proc isolation)%s@."
          socket jobs
          (if chaos <> None then " [CHAOS]" else ""))
      ~handler:Jobs_catalog.handler ()
  with
  | () ->
      Format.eprintf "serve: drained cleanly@.";
      0
  | exception (Failure msg | Invalid_argument msg) ->
      (* Invalid_argument: a --resume journal in another format version. *)
      Format.eprintf "serve: %s@." msg;
      1

let socket =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH|tcp:PORT"
        ~doc:
          "Listen on this Unix-domain socket path, or on loopback TCP with \
           $(b,tcp:PORT).  A stale socket file is replaced; the file is \
           removed on exit.")

let journal =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Record accepted jobs and their results to $(docv) (checkpoint \
           format), enabling --resume crash recovery and lossless drains.")

let resume =
  Arg.(
    value
    & flag
    & info [ "resume" ]
        ~doc:
          "Replay the --journal on startup: finished jobs are served as \
           cached results, accepted-but-unfinished jobs re-enter the queue.")

let chaos =
  Arg.(
    value
    & opt (some int) None
    & info [ "chaos" ] ~docv:"SEED"
        ~doc:
          "Inject deterministic faults from this seed: dropped connections, \
           partial and truncated reply frames, and worker SIGKILLs.  Injected \
           kills are charged no retry budget, so chaos never quarantines a \
           healthy job.")

(* The one mode there is, still accepted by name because command lines
   pass it (bench/suite starts the server with --isolate proc); any
   other value is a usage error. *)
let isolate =
  Arg.(
    value
    & opt (enum [ ("proc", ()) ]) ()
    & info [ "isolate" ] ~docv:"MODE"
        ~doc:
          "Isolation: $(b,proc), the only mode.  Every task runs on a \
           supervised worker process: one per --jobs slot, forked when a \
           task first needs it, and replaced when it dies, is killed, or \
           its task raised or spawned a domain.  A task survives kills of \
           its worker: crashed tasks retry with seeded backoff, and \
           crash-looping ones are quarantined.")

let cmd =
  Cmd.v
    (Cmd.info "serve" ~doc:"Resilient job server over a Unix/TCP socket")
    Term.(
      const run $ socket $ journal $ resume $ chaos
      $ Obs_cli.exec_term $ isolate $ Obs_cli.trace $ Obs_cli.stats $ Obs_cli.flight)

let () = exit (Cmd.eval' cmd)
