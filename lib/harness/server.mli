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
    {- ['T'] stats — empty payload.}}

    Server→client frames:

    {ul
    {- ['A'] accepted — payload is the job id;}
    {- ['R'] result — payload [id "\t" result];}
    {- ['X'] rejected — payload [id "\t" reason] (the typed
       [REJECTED (Overloaded)] backpressure answer, also sent while
       draining);}
    {- ['H'] health / ['U'] stats — one canonical JSON object;}
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
    lost — not to a drain, nor to a SIGKILL — and a client that
    resubmits after the restart gets byte-identical results.

    {2 Three parts and a loop}

    {!run} is a single-domain [Unix.select] loop over three parts, each
    usable without a socket or a server: the {!Journal} codec, the
    {!Conn} connection layer, and an execution {!Backend}.  The loop
    owns admission, dedup and the queue of admitted jobs; it starts
    jobs while the backend has room, and hands the backend's readable
    descriptors back to it to settle. *)

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

(** {2 The parts} *)

(** The seeded schedule of chaos injections: one stream of decisions,
    shared by every injection point of a server so that a seed replays
    the same schedule. *)
module Chaos : sig
  type t

  val create : chaos option -> t
  (** [None] never injects anything. *)

  val injected : t -> int
  (** Injections fired so far. *)
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

(** The one interface the loop runs jobs through.  Tasks carry the
    caller's tag ['a]; the caller's side is single-domain. *)
module Backend : sig
  type settled =
    | Done of { result : string; delta : string }
        (** the job's result — ["ERROR: ..."] when its handler raised,
            ["QUARANTINED ..."] when it ran out of retries — and its
            encoded {!Obs.Stats} contribution, already merged into this
            process's registry *)
    | Retrying  (** an attempt died and is charged; the task respawns *)
    | Abandoned  (** an attempt was killed uncharged: the caller reruns it *)

  type 'a t = {
    room : unit -> bool;  (** fewer than [jobs] tasks run *)
    start : 'a -> key:string -> timeout:float option -> (unit -> string) -> unit;
        (** start a task now; the caller checks [room] first *)
    fds : unit -> Unix.file_descr list;  (** to select on for reading *)
    next_deadline : unit -> float option;  (** when [tick] has work *)
    tick : unit -> unit;  (** watchdog, due retries, due chaos kills *)
    settle : Unix.file_descr -> ('a * settled) list;
        (** what a readable descriptor of [fds] settled *)
    running : unit -> int;
    idle : unit -> bool;  (** nothing runs and no retry waits *)
    abandon : unit -> 'a list;
        (** retry no more: the tasks that were waiting for a retry *)
    shutdown : unit -> unit;  (** kill and reap, or stop and join *)
  }

  val processes : jobs:int -> chaos:Chaos.t -> Supervisor.config -> 'a t
  (** One {!Supervisor} child per task, with its watchdog, retries and
      quarantine; [timeout] is the per-attempt limit.  Chaos SIGKILLs
      a child now and then, settled {!Abandoned}. *)

  val domains : jobs:int -> 'a t
  (** [jobs] worker domains, spawned now, that take tasks from the
      caller through a handoff slot and wake its select through a
      pipe.  No watchdog: [timeout] is ignored, and nothing is retried
      or abandoned.  A process that has run it cannot fork safely. *)
end
