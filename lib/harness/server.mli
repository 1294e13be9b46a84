(** The resilient job server: a long-running front door that accepts
    game/sweep/fuzz jobs over a socket and runs each as a task of the
    {!Supervisor}'s worker engine.

    {2 Protocol}

    Clients speak {!Wire} framing over a Unix-domain socket (or
    loopback TCP with a ["tcp:PORT"] socket spec).  Client→server
    frames:

    {ul
    {- ['S'] submit — payload [kind "\t" deadline_ms "\n" job-payload]
       ([deadline_ms] empty for the server default);}
    {- ['P'] health ping — empty payload.}}

    Any other tag is a protocol error.

    Server→client frames:

    {ul
    {- ['A'] accepted — payload is the job id;}
    {- ['R'] result — payload [id "\t" result];}
    {- ['X'] rejected — payload [id "\t" reason] (the typed
       [REJECTED (Overloaded)] backpressure answer, also sent while
       draining);}
    {- ['H'] health — one canonical JSON object: [status] (["ok"] or
       ["draining"]), [queued], [running] and [completed] (jobs finished
       since start);}
    {- ['E'] protocol error — a {!Wire.error} rendering or a malformed
       submit; the connection closes after it.}}

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
    memory.  A connection's unsent replies are bounded too: while they
    exceed 1 MiB the server reads no more of its requests, and every
    socket is non-blocking, so a client that stops reading stalls only
    itself — backpressure, never unbounded growth.

    {2 Execution}

    Every job runs in a worker process, as one task of the
    {!Supervisor}'s engine — the same engine, workers and failure
    handling as a [Sweep] run with [~isolation:`Process].  The server
    forks no worker before it is listening: the first [jobs] jobs that
    run side by side fork one warm worker each, and those workers run every
    later job, the handler applied to the request [kind TAB payload].
    The watchdog escalates SIGTERM → SIGKILL on the job's own deadline
    or else [supervisor.timeout], crashes retry on the seeded
    [supervisor.backoff] schedule, and a job out of retries degrades to
    the typed ["QUARANTINED ..."] result.  A handler that returns
    produces its string verbatim; a handler that raises produces
    ["ERROR: <exn>"], never retried ({!Supervisor.outcome_to_string}),
    so a campaign's bytes never depend on the [jobs] count.  A handler
    may fork, install signal handlers or own process-wide state: before
    each job its worker restores the signal dispositions, trace sink
    and stats registry a fresh fork had, and a worker whose job raised
    or spawned a domain is replaced by a fresh fork.  Workers hold no
    descriptor of the server's — not the listener, a client socket or
    the journal — and exit when the server dies, even by SIGKILL.

    {2 Drain and recovery}

    With a [?journal], every accepted job is recorded before it runs
    and every finished job's result is recorded after ({!Sweep.Journal}
    format).  On SIGTERM (or SIGINT) the server {e drains}: it stops
    accepting, finishes in-flight jobs, answers their waiters, and
    exits — queued jobs stay journaled.  Restarting with [~resume:true]
    replays the journal: finished jobs become cached results (served
    without re-running), accepted-but-unfinished jobs re-enter the
    queue in acceptance order.  An accepted job is therefore never
    lost — not to a drain, nor to a SIGKILL — and a client that
    resubmits after the restart gets byte-identical results.

    {2 Two parts, the engine and a loop}

    {!run} is a single-domain [Unix.select] loop over two parts, each
    usable without a socket or a server — the {!Journal} codec and the
    {!Conn} connection layer — and the {!Supervisor} engine, which it
    drives directly: it spawns jobs while the engine has [room], selects
    on the engine's [fds] until its [next_deadline], hands each readable
    one to [read], and calls [tick].  The loop keeps only the server's
    own policy: admission, dedup and the queue of admitted jobs; seeded
    chaos kills ({!Supervisor.kill}); putting a job whose worker was
    abandoned — by a chaos kill, or by a death during a drain — back in
    the queue with its retry budget uncharged; and journaling each
    finished job's stats delta.  Its cleanup reaps every worker before
    {!run} returns.

    {2 Telemetry}

    The server keeps no counters beyond the health answer's [completed].
    What it did is in its trace ([serve --trace], tallied by
    [trace_report]): each submit's disposition ([new], [inflight] or
    [cached]), each rejection, job start and finished job's status,
    each retry, connection and chaos injection.  After a [--resume],
    recovered jobs show up as [cached] submits or as job starts. *)

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
      (** probability a job's worker is SIGKILLed at a random point of
          its run (charged no retry, like an interrupt, so chaos cannot
          quarantine a healthy job) *)
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
  jobs : int;  (** max jobs running concurrently, one worker process each *)
  queue_limit : int;
      (** max jobs {e queued} (admitted, not yet running); submits
          beyond it are rejected *)
  supervisor : Supervisor.config;
      (** the worker engine's retries, watchdog and backoff.  Its
          [timeout] is the per-attempt deadline of jobs that do not
          carry their own; [None] disables the watchdog for them. *)
  max_frame : int;  (** decoder payload cap per frame, bytes *)
  chaos : chaos option;  (** fault injection; [None] in production *)
}

val default_config : config
(** [jobs = 2], [queue_limit = 64],
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

(** {2 The parts} *)

(** The seeded schedule of chaos injections: one stream of decisions,
    shared by every injection point of a server so that a seed replays
    the same schedule. *)
module Chaos : sig
  type t

  val create : chaos option -> t
  (** [None] never injects anything.  Each injection emits a
      [Chaos_injected] trace event, its only record. *)
end

(** The crash-recovery records the server appends to its
    {!Sweep.Journal}: ["j:" id] when a job is accepted, with value
    [kind TAB deadline_ms TAB payload], and ["d:" id] when it finishes,
    with its result joined to the stats delta ({!Sweep.join_delta}). *)
module Journal : sig
  type job = {
    id : string;  (** {!Client.job_id} of [kind] and [payload] *)
    kind : string;
    deadline_ms : int option;
        (** per-attempt deadline, whole milliseconds; [None] is the
            configured default.  Seconds only at {!Supervisor.spawn}. *)
    payload : string;
  }

  type record = Accepted of job | Finished of { id : string; value : string }

  val deadline_of_string : string -> (int option, string) result
  (** The [deadline_ms] field of a submit header or an ["j:"] record:
      [""] is [None], a positive decimal is [Some ms]; anything else is
      [Error] with the field. *)

  val encode : record -> string * string
  (** The journal [(key, value)] of a record. *)

  val decode : string * string -> record option
  (** Inverse of {!encode}; [None] for a key of any other shape or an
      ["j:"] value without its two TABs.  An unparseable deadline
      decodes as [None]. *)

  type recovered = {
    cached : (job * string) list;
        (** accepted jobs that finished, with their ["d:"] value (the
            last one when there are several) *)
    queued : job list;  (** accepted jobs with no ["d:"] record *)
  }

  val recover : (string * string) list -> recovered
  (** Map {!Sweep.Journal.load}'s records to what a restart serves and
      reruns, both in acceptance order.  The first ["j:"] record of an
      id counts; records of other shapes are skipped.  Pure. *)
end

(** One client connection: its decoder, its unsent output and the
    chaos applied to what it sends.  The socket is non-blocking, so
    nothing here waits for the peer. *)
module Conn : sig
  type t

  val create : chaos:Chaos.t -> max_frame:int -> int -> Unix.file_descr -> t
  (** [create ~chaos ~max_frame id fd] takes over the connected socket
      [fd] (made non-blocking) under the trace id [id].  Requests may
      carry up to [max_frame] payload bytes, and the connection stops
      reading while more than 1 MiB of output waits. *)

  val fill : t -> Bytes.t -> unit
  (** One [read] into the decoder, using the scratch buffer; EOF or a
      socket error closes the connection. *)

  val next_frame : t -> Wire.frame option
  (** The next complete request, or [None]: none is buffered, the
      output is over its bound, or the connection is closing.  A frame
      that fails to decode is answered by {!fail}. *)

  val send : t -> bytes -> unit
  (** Queue one encoded frame.  Chaos may truncate it (and close the
      connection after it), or hold back its second half for a seeded
      delay.  A no-op once the connection is closing. *)

  val fail : t -> string -> unit
  (** The protocol-error close: send ['E'] with the reason, then close
      once the output is flushed. *)

  val flush : t -> float -> unit
  (** [flush t now] writes what the socket takes now, held-back chunks
      due by [now] included, and closes a connection whose closing
      output is all written. *)

  val wants_read : t -> bool
  (** Open, with no more than 1 MiB unsent. *)

  val unsent : t -> int
  (** Output bytes queued but not yet written. *)

  val next_due : t -> float option
  (** When the first held-back chunk is due. *)

  val close : t -> string -> unit
  (** Close now; [reason] goes to the [Conn_close] trace event. *)

  val closed : t -> bool
end
