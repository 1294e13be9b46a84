(** The resilient job server: a long-running front door that accepts
    game/sweep/fuzz jobs over a socket and runs them on worker domains
    or on the {!Supervisor}'s child engine.

    {2 Protocol}

    Clients speak {!Wire} framing over a Unix-domain socket (or
    loopback TCP with a ["tcp:PORT"] socket spec).  Client→server
    frames:

    {ul
    {- ['S'] submit — payload [kind "\t" deadline_ms "\n" job-payload]
       ([deadline_ms] empty for the server default);}
    {- ['P'] health ping — empty payload;}
    {- ['T'] stats — empty payload;}
    {- ['Q'] depth probe — empty payload; the cheap polling frame the
       {!Fleet} rebalancer uses.}}

    Server→client frames:

    {ul
    {- ['A'] accepted — payload is the job id;}
    {- ['R'] result — payload [id "\t" result];}
    {- ['X'] rejected — payload [id "\t" reason] (the typed
       [REJECTED (Overloaded)] backpressure answer, also sent while
       draining);}
    {- ['H'] health / ['U'] stats — one canonical JSON object;}
    {- ['D'] depth — [queued "\t" running "\t" completed "\t" draining]
       with [draining] 0 or 1, fixed-layout so probes need no JSON
       parse;}
    {- ['E'] protocol error — a {!Wire.error} rendering; the connection
       closes after it.}}

    {2 Idempotency and admission}

    A job's id is {e content-derived} — [Digest] of its kind and
    payload ({!Client.job_id}) — so submission is idempotent: a
    duplicate submit of a finished job replays the recorded result
    ([cached]), a duplicate of a queued/running job attaches the
    connection as a second waiter ([inflight]), and only a genuinely
    new job consumes queue capacity.  That is what makes client-side
    retries safe under every failure the chaos harness injects.

    The admission queue is {e bounded} ([queue_limit]): a submit that
    would grow it past the limit is answered with ['X'] and costs no
    memory — backpressure, never unbounded growth.

    {2 Execution}

    Jobs run under the configured [isolation].  [`Process] runs each
    job as one task of the {!Supervisor}'s child engine — the same
    engine, child and failure handling as a [Sweep] under
    [--isolate proc]: the watchdog escalates SIGTERM → SIGKILL on the
    job's own deadline or else [supervisor.timeout], crashes retry on
    the seeded [supervisor.backoff] schedule, and a job out of retries
    degrades to the typed ["QUARANTINED ..."] result.  The server only
    adds policy: a chaos kill, or a child dying during a drain, requeues
    the job with its retry budget uncharged.  [`In_domain] runs jobs on
    a pool of worker domains (no fork, no watchdog — the {!Guard}'s
    territory).  A handler that returns produces its string verbatim; a
    handler that raises produces ["ERROR: <exn>"] in both modes (never
    retried), so a campaign's bytes never depend on the isolation mode
    or [jobs] count.

    {2 Drain and recovery}

    With a [?journal], every accepted job is recorded before it runs
    and every finished job's result is recorded after ({!Sweep.Journal}
    format).  On SIGTERM (or SIGINT) the server {e drains}: it stops
    accepting, finishes in-flight jobs, answers their waiters, and
    exits — queued jobs stay journaled.  Restarting with [~resume:true]
    replays the journal: finished jobs become cached results (served
    without re-running), accepted-but-unfinished jobs re-enter the
    queue in acceptance order.  An accepted job is therefore never
    lost, and a client that resubmits after the restart gets
    byte-identical results. *)

type chaos = {
  chaos_seed : int;  (** seed for the injection schedule *)
  drop_conn : float;
      (** probability a processed submit drops the connection instead
          of answering (the client must retry; admission already
          happened, so the retry dedups) *)
  partial_frame : float;
      (** probability a reply frame is written in two halves with a
          delay between them (slow-loris from the server side) *)
  truncate_frame : float;
      (** probability a reply frame is cut mid-frame and the
          connection closed (the client sees EOF inside a frame) *)
  kill_child : float;
      (** [`Process] mode: probability a job's child is SIGKILLed at a
          random point of its run (charged no retry, like an
          interrupt, so chaos cannot quarantine a healthy job) *)
  corrupt_journal : float;
      (** probability each journal append is followed by simulated disk
          damage to the last record — a seeded bit-flip, or a
          truncation repaired to stay line-delimited.  The damaged
          record fails its v2 CRC on the next load and is skipped with
          the typed warning; the affected job reruns after restart.
          No-op without a [?journal]. *)
  max_chaos_delay : float;
      (** upper bound, seconds, on injected delays and kill timing *)
}

val default_chaos : seed:int -> chaos
(** Moderate rates: drop 10%, partial 20%, truncate 10%, kill 25%,
    corrupt-journal 10%, delays up to 50 ms. *)

type config = {
  jobs : int;  (** max jobs executing concurrently *)
  isolation : [ `In_domain | `Process ];
  queue_limit : int;
      (** max jobs {e queued} (admitted, not yet running); submits
          beyond it are rejected *)
  supervisor : Supervisor.config;
      (** [`Process]: the child engine's retries, watchdog and backoff.
          Its [timeout] is the per-attempt deadline of jobs that do not
          carry their own; [None] disables the watchdog for them. *)
  max_frame : int;  (** decoder payload cap per frame, bytes *)
  chaos : chaos option;  (** fault injection; [None] in production *)
}

val default_config : config
(** [jobs = 2], [`Process] isolation, [queue_limit = 64],
    {!Supervisor.default_config}, {!Wire.default_max_payload}, no
    chaos. *)

val validate_config : config -> unit
(** @raise Invalid_argument naming the offending field. *)

val run :
  ?config:config ->
  ?journal:string ->
  ?resume:bool ->
  ?should_stop:(unit -> bool) ->
  ?on_ready:(unit -> unit) ->
  socket:string ->
  handler:(kind:string -> payload:string -> string) ->
  unit ->
  unit
(** [run ~socket ~handler ()] listens on [socket] — a Unix-domain
    socket path, or ["tcp:PORT"] for loopback TCP — and serves until
    drained by SIGTERM/SIGINT (both handlers are installed for the
    duration and restored after) or until [should_stop] first returns
    [true].  [handler ~kind ~payload] computes a job's result; it must
    be deterministic in its arguments — that determinism is what the
    whole retry/dedup/replay design rests on.  [on_ready] fires once
    the socket is accepting.

    A normal return means the server drained cleanly: in-flight jobs
    finished and were journaled, queued jobs remain journaled for a
    [~resume:true] restart.

    @raise Invalid_argument on an invalid config (a [kind] containing a
    tab or newline byte is rejected per-request with an ['E'] frame, not
    here).
    @raise Failure if the socket cannot be bound or listened on. *)
