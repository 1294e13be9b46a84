(* The resilient job server front door: accept thm1/thm2/thm3/fuzz jobs
   over a Unix-domain (or loopback TCP) socket and run each in a
   supervised child process.

     dune exec bin/serve.exe -- --socket /tmp/jobs.sock --jobs 4 \
       --journal jobs.journal
     dune exec bin/serve.exe -- --socket tcp:7421 --queue-limit 16
     dune exec bin/serve.exe -- --socket /tmp/jobs.sock --chaos 42

   Admission is bounded (--queue-limit; excess submits get a typed
   rejection), duplicate submits dedup on the content-derived job id,
   and each job runs on the sweeps' child engine (Harness.Supervisor):
   at most --jobs children at a time, crashed jobs retry with seeded
   backoff (--retries) and then quarantine, and the watchdog kills a
   job over its deadline, or over --cell-timeout-ms for a job that
   carries none, escalating SIGTERM -> SIGKILL after --kill-grace-ms.
   --isolate proc is accepted and changes nothing; --isolate domain is
   a usage error.  SIGTERM drains gracefully (in-flight jobs finish,
   queued jobs stay in the --journal), and --resume replays the journal
   after a crash or drain: finished jobs become cached results,
   accepted-but-unfinished jobs re-enter the queue.  --chaos SEED
   injects deterministic faults (dropped connections, partial/truncated
   frames, child SIGKILLs) to rehearse exactly those failure paths. *)

open Cmdliner

let run socket queue_limit journal resume chaos jobs () supervisor trace stats
    flight =
  Obs_cli.with_observability ~program:"serve" ~trace ~stats ~flight @@ fun () ->
  let config =
    {
      Harness.Server.default_config with
      Harness.Server.jobs;
      queue_limit;
      supervisor;
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
  | exception Failure msg ->
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

let queue_limit =
  Arg.(
    value
    & opt Obs_cli.positive_int Harness.Server.default_config.Harness.Server.queue_limit
    & info [ "queue-limit" ] ~docv:"N"
        ~doc:
          "Max jobs admitted but not yet running.  Submits beyond it are \
           answered with a typed rejection (backpressure), never queued \
           unboundedly.")

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
           partial and truncated reply frames, and child SIGKILLs.  Injected \
           kills are charged no retry budget, so chaos never quarantines a \
           healthy job.")

(* The one mode there is, still accepted by name: command lines that
   pass --isolate proc keep working, and any other value is a usage
   error. *)
let isolate =
  Arg.(
    value
    & opt (enum [ ("proc", ()) ]) ()
    & info [ "isolate" ] ~docv:"MODE"
        ~doc:
          "Job isolation: $(b,proc), the only mode.  Every job runs in a \
           supervised child process.")

let cmd =
  Cmd.v
    (Cmd.info "serve" ~doc:"Resilient job server over a Unix/TCP socket")
    Term.(
      const run $ socket $ queue_limit $ journal $ resume $ chaos $ Obs_cli.jobs
      $ isolate $ Obs_cli.supervisor_term $ Obs_cli.trace $ Obs_cli.stats
      $ Obs_cli.flight)

let () = exit (Cmd.eval' cmd)
