(* The resilient job server front door: accept thm1/thm2/thm3/fuzz jobs
   over a Unix-domain (or loopback TCP) socket and run them under the
   harness's isolation machinery.

     dune exec bin/serve.exe -- --socket /tmp/jobs.sock --jobs 4 \
       --isolate proc --journal jobs.journal
     dune exec bin/serve.exe -- --socket tcp:7421 --queue-limit 16
     dune exec bin/serve.exe -- --socket /tmp/jobs.sock --chaos 42

   Admission is bounded (--queue-limit; excess submits get a typed
   rejection), duplicate submits dedup on the content-derived job id,
   under --isolate proc each job runs in a supervised child (the shared
   --retries, --kill-grace-ms and --cell-timeout-ms flags: crashed jobs
   retry with seeded backoff and then quarantine, and --cell-timeout-ms
   is the deadline of jobs that do not carry their own), SIGTERM
   drains gracefully (in-flight jobs finish, queued jobs stay in the
   --journal), and --resume replays the journal after a crash or drain:
   finished jobs become cached results, accepted-but-unfinished jobs
   re-enter the queue.  --chaos SEED injects deterministic faults
   (dropped connections, partial/truncated frames, child SIGKILLs) to
   rehearse exactly those failure paths. *)

open Cmdliner

let run socket queue_limit journal resume chaos
    (exec : Obs_cli.exec) trace stats flight =
  Obs_cli.with_observability ~program:"serve" ~trace ~stats ~flight @@ fun () ->
  let config =
    {
      Harness.Server.default_config with
      Harness.Server.jobs = exec.Obs_cli.jobs;
      isolation = exec.Obs_cli.isolation;
      queue_limit;
      supervisor = exec.Obs_cli.supervisor;
      chaos = Option.map (fun seed -> Harness.Server.default_chaos ~seed) chaos;
    }
  in
  match
    Harness.Server.run ~config ?journal ~resume ~socket
      ~on_ready:(fun () ->
        Format.eprintf "serve: listening on %s (%d jobs, %s isolation)%s@."
          socket config.Harness.Server.jobs
          (match config.Harness.Server.isolation with
          | `Process -> "proc"
          | `In_domain -> "domain")
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
           partial and truncated reply frames, and (under --isolate proc) \
           child SIGKILLs.  Injected kills are charged no retry budget, so \
           chaos never quarantines a healthy job.")

let cmd =
  Cmd.v
    (Cmd.info "serve" ~doc:"Resilient job server over a Unix/TCP socket")
    Term.(
      const run $ socket $ queue_limit $ journal $ resume
      $ chaos $ Obs_cli.exec_term $ Obs_cli.trace $ Obs_cli.stats
      $ Obs_cli.flight)

let () = exit (Cmd.eval' cmd)
