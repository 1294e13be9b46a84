(** Supervised execution on worker processes: the one worker engine of
    the harness — every binary runs its cells, drivers, targets and jobs
    on it — and the ordered-delivery driver under
    [Sweep.run ~isolation:`Process] built on it.

    Every in-process containment layer has a blind spot: {!Guard}
    deadlines are only polled at ticks (a blocking, non-ticking thunk
    evades them — see guard.mli), and nothing in-process survives an
    OOM-kill or a stray [SIGKILL] aimed at a worker.  The supervisor
    closes both gaps by running every task in a {e worker process}: one
    warm worker per [jobs] slot, forked lazily the first time a task
    needs the slot, which takes task after task.  Parent and worker
    speak {!Wire} framing over two pipes — the same audited codec the
    {!Server} speaks on its socket:

    {v
      parent (single domain: fork/select/waitpid loop)
        ├─ worker[pid] ◀── pipe ──  'T' len bytes  a task's request
        │              ── pipe ──▶  'H'            heartbeat (SIGALRM-driven)
        │                           'V' len bytes  the task's trace events
        │                                          (optional, first)
        │                           'S' len bytes  stats snapshot (optional,
        │                                          just before a success 'R')
        │                           'R' len bytes  result payload
        │                           'E' len bytes  contained exception text
        │                           'H'            after 'R': ready for the next
        └─ worker[pid] ...          (EOF on its request pipe: exit 0)
    v}

    A closure cannot cross a fork that already happened, so the engine
    is created with the one [work] function its workers run, and a task
    is a request string: {!run}'s request is the task index, the
    server's is [kind TAB payload].

    {2 One engine, two drivers}

    The {e engine} ({!create} … {!shutdown}) is the only code in the
    harness that forks, watches, reaps, retries or quarantines a worker.
    It owns no loop: its caller's [Unix.select] loop drives it — select
    on {!fds} until {!next_deadline}, hand each readable descriptor to
    {!read}, call {!tick}.  Two drivers sit on it:

    {ul
    {- {!run}, the ordered-delivery driver: tasks [0 .. n-1] with
       results consumed in index order.  {!Sweep}, [fuzz.exe] and the
       experiment tables call it.  On interrupt it {!terminate}s its
       workers and abandons their tasks.}
    {- the {!Server}'s socket loop: one task per job.  Admission,
       dedup, the journal, drain and chaos stay the server's: its drain
       lets in-flight tasks finish and requeues a job whose worker dies
       meanwhile ({!abandon}), and a chaos kill ({!kill}) requeues the
       job without charging its retry budget.}}

    The parent is {e single-domain by construction}: OCaml 5.1 refuses
    [Unix.fork] for the rest of a process's life once any domain was
    spawned, so [jobs] workers run concurrently under one [Unix.select]
    loop and nothing in the harness spawns a domain.

    {2 Workers}

    A worker starts clean: it closes every inherited descriptor except
    stdio and its own two pipe ends — the server's listener, client
    sockets and journal, a sweep's checkpoint, sibling workers' pipes —
    so a closed connection reads EOF at once, a drained server refuses
    connections, and a worker reads EOF and exits 0 when its parent
    dies, even by [SIGKILL].  It also points [Filename]'s temp directory
    at a directory of its own, [worker-PID] under the parent's: fork
    copies the temp-name generator, so sibling workers would otherwise
    draw the same names.  The worker removes that directory before it
    exits, and the parent after reaping it.  Before each task it
    restores what a fresh fork gave the task: [SIGTERM] and [SIGINT] at
    their defaults (a parent's own handlers, such as the server's
    drain, must not swallow the watchdog's [SIGTERM]), [SIGPIPE]
    ignored, a fresh capture of the task's trace events
    ({!Obs.Flight.begin_task}; the parent's sink and recorder were
    detached at fork), and an empty {!Obs.Stats} table
    ({!Obs.Stats.reset}).

    A worker is replaced — the next task that needs its slot forks a
    new one — only when it dies (of its task, the watchdog, a {!kill}
    or {!terminate}, or anything outside), writes garbage, replies
    ['E'] (so OOM or stack-overflow state never carries over), or
    spawned a domain during its task (it could no longer fork: the
    worker tests the runtime's [caml_domain_is_multicore], the
    condition [Unix.fork] checks).  With no failures a run forks at
    most [jobs] workers.  {!shutdown} reaps every worker, so the
    parent's child-CPU totals still count them.

    {2 Failure handling}

    A task that returns sends ['R'] and its result is delivered as
    {!Done}.  A task that raises has the exception caught {e inside the
    worker}, which sends ['E'] — delivered as {!Failed}, never retried
    (the raise is deterministic; retrying would break byte-equivalence
    with the in-domain path).  Everything else is an {e abnormal}
    death of the worker running the task — nonzero exit, a signal, a
    watchdog kill, or protocol garbage — and goes through the retry
    machinery: the task is rescheduled with seeded exponential
    backoff + jitter (deterministic given [config.backoff], the task
    key, and the attempt number) until the retry budget is spent, at
    which point it degrades to a typed {!Quarantined} record instead of
    stalling the run.  A worker that dies between tasks costs no task anything.

    The wall-clock watchdog (per-attempt [config.timeout], or a task's
    own [?timeout]) escalates [SIGTERM] → [config.kill_grace] →
    [SIGKILL] on the task's worker; a task killed this way records a
    {!Misbehavior.Unresponsive} certificate — exactly the case the
    in-process guard cannot catch.  Heartbeats are traced for
    observability but play no role in kill decisions (the watchdog is
    pure wall-clock, so a heartbeating-but-stuck task still dies).

    {2 Observability}

    Worker lifecycle is emitted through {!Obs.Trace} ([Child_spawn] and
    [Child_exit], with exit status and the worker's lifetime CPU
    rusage from [Unix.times], once per worker process;
    [Child_heartbeat], [Child_kill], [Cell_retry], [Cell_quarantined]
    per task); [trace_report] tallies them.  Heartbeat counts are
    timing-dependent and therefore {e not} jobs-count-invariant.

    A task's own events cross the boundary too.  When the parent has an
    NDJSON sink or a flight recorder, the worker captures the task's
    events and sends them as a ['V'] frame ahead of its reply — all of
    them for a sink, and only for a task that hit an anomaly when there
    is just a recorder — and the parent relays them when the reply
    lands ({!Obs.Flight.relay}), with [w] set to the worker's 1-based
    slot: a replacement worker takes its predecessor's slot, so a slot
    is one causally ordered stream.  With neither, nothing is captured
    and no frame is sent.  Stats cross the same way: a worker drains
    its own registry into a framed ['S'] snapshot that the parent
    re-absorbs (see [on_stats] below).  Events and stats of an attempt
    whose worker died are lost with it. *)

type config = {
  retries : int;
      (** extra attempts after the first (so [retries = 2] means at most
          3 attempts per task); [0] disables retrying.  Default [2]. *)
  timeout : float option;
      (** per-{e attempt} wall-clock limit in seconds for tasks that do
          not carry their own; [None] (default) disables the watchdog. *)
  kill_grace : float;
      (** seconds between the watchdog's [SIGTERM] and its [SIGKILL]
          escalation.  Default [0.5]. *)
  heartbeat_interval : int;
      (** seconds between a running task's heartbeat bytes; [0]
          disables them.
          Default [1]. *)
  backoff : Backoff.config;
      (** the retry schedule — the same seed, task key and attempt
          number always produce the same delay.  Default
          {!Backoff.default}. *)
}

val default_config : config

val validate_config : config -> unit
(** @raise Invalid_argument naming the offending field if [retries < 0],
    [timeout <= 0], [kill_grace <= 0], [heartbeat_interval < 0], or an
    invalid [backoff] ({!Backoff.validate}). *)

type failure =
  | Exited of int  (** abnormal worker exit with this nonzero code *)
  | Signaled of int
      (** worker killed by this signal (OCaml signal number — e.g. an
          external [kill -9], an OOM kill) *)
  | Unresponsive of { elapsed : float; limit : float; forced : bool }
      (** the watchdog killed the attempt after [elapsed] seconds
          (per-attempt limit [limit]); [forced] means [SIGTERM] was
          ignored and the [SIGKILL] escalation fired *)
  | Protocol of string
      (** the worker wrote garbage, or exited 0 without a complete
          reply frame *)

val pp_failure : Format.formatter -> failure -> unit
val failure_to_string : failure -> string

val to_misbehavior : failure -> Misbehavior.t option
(** [Unresponsive] maps to {!Misbehavior.Unresponsive} — the typed
    certificate for the guard's blocking-thunk blind spot; other
    failures carry no per-participant certificate (a [SIGKILL] from
    outside says nothing about the algorithm). *)

type quarantine = {
  key : string;
  attempts : int;  (** total attempts made, all failed *)
  failures : failure list;  (** one per attempt, in attempt order *)
}

val quarantine_to_string : quarantine -> string
(** ["QUARANTINED after N attempts: <failure>; <failure>; ..."] — the
    string a sweep records (and checkpoints) for a quarantined cell, and
    a server answers for a quarantined job. *)

type outcome =
  | Done of string  (** the task returned this string *)
  | Failed of string
      (** the task raised; payload is [Printexc.to_string] of the
          exception, caught {e in the worker} (deterministic raises are
          results, not retryable crashes) *)
  | Quarantined of quarantine  (** retry budget exhausted *)

val outcome_to_string : outcome -> string
(** The result string a sweep prints and checkpoints, and a server
    answers, for an outcome: [Done]'s string verbatim, ["ERROR: "]
    before a [Failed] message — the in-domain path's format for a raise
    — or {!quarantine_to_string}. *)

(** {2 The engine} *)

type 'a t
(** Workers, tasks in flight and tasks waiting out a retry backoff,
    each task tagged with the caller's ['a] (compared physically by
    {!kill}).  Single-domain, like the {!run} loop on top of it. *)

type settled =
  | Finished of outcome * string option
      (** the task's final outcome; for {!Done}, the worker's encoded
          {!Obs.Stats} drain (its ['S'] frame) if it sent one *)
  | Retrying
      (** the attempt died abnormally and is charged; the task respawns
          after its backoff (from {!tick}) *)
  | Abandoned
      (** the attempt died after {!abandon}, or was {!kill}ed: neither
          retried nor charged — the caller decides whether to rerun *)

val create : jobs:int -> work:(string -> string) -> config -> 'a t
(** An engine whose workers run [work] on each task's request string,
    at most [jobs] workers and [jobs] tasks at a time.  Forks nothing
    until a task needs a worker.
    @raise Invalid_argument on [jobs < 1] or an invalid [config]. *)

val spawn : 'a t -> 'a -> key:string -> ?timeout:float -> string -> unit
(** [spawn t tag ~key request] starts a task: a ready worker runs
    [work request] and replies with its string, or a worker is forked
    for it if fewer than [jobs] exist.  With neither, the task waits
    for the first worker to become ready (or to be replaced) and still
    counts in {!live}.  [key] names the task in traces, backoff seeding
    and quarantine records; [timeout] is the per-attempt limit, default
    [config.timeout].  Starts regardless of [jobs]: the caller checks
    {!room} first. *)

val live : 'a t -> int
(** Tasks in flight: started and not yet settled, retries waiting out
    their backoff excluded.  Not workers. *)

val room : 'a t -> bool
(** Fewer than [jobs] tasks are in flight. *)

val idle : 'a t -> bool
(** No task is in flight and none waits for a retry.  Idle workers may
    remain; {!shutdown} reaps them. *)

val fds : 'a t -> Unix.file_descr list
(** The reply pipes of every worker, idle ones included (so a worker
    that dies between tasks is reaped), to select on for reading. *)

val next_deadline : 'a t -> float option
(** The earliest absolute time at which {!tick} has work: a watchdog
    [SIGTERM] or [SIGKILL] escalation, or a retry coming due. *)

val read : 'a t -> Unix.file_descr -> ('a * settled) option
(** Read from a readable descriptor of {!fds}.  [Some] when a task
    settled: its reply landed, or its worker died and was reaped.
    [None] otherwise, also for a descriptor the engine does not own.
    Hands waiting tasks to workers that became ready. *)

val tick : 'a t -> unit
(** Escalate the watchdog, then restart the retries that are due while
    {!room} lasts — before the caller adds fresh tasks. *)

val kill : 'a t -> 'a -> bool
(** [SIGKILL] the worker running the task tagged ['a], if the task has
    not replied yet; the attempt then settles {!Abandoned}.  [false]
    when no worker runs it. *)

val abandon : 'a t -> 'a list
(** Stop retrying: drop the tasks waiting for a retry or for a worker
    (returning their tags), and let every later abnormal death settle
    {!Abandoned}.  Running tasks are left to finish. *)

val terminate : 'a t -> unit
(** {!abandon}, then [SIGTERM] every worker whose task has not replied;
    the watchdog escalates to [SIGKILL] after [config.kill_grace]. *)

val shutdown : 'a t -> unit
(** [SIGKILL] every worker with a task in flight, close every worker's
    pipes (the others read EOF and exit 0), reap them all, and drop
    waiting tasks.  For every exit path, the exceptional ones
    included. *)

(** {2 Ordered delivery} *)

val run :
  ?config:config ->
  ?should_stop:(unit -> bool) ->
  jobs:int ->
  tasks:int ->
  key:(int -> string) ->
  ?inline:(int -> string option) ->
  work:(int -> string) ->
  ?on_stats:(task:int -> string -> unit) ->
  ?complete:(int -> outcome -> unit) ->
  consume:(int -> outcome -> unit) ->
  unit ->
  unit
(** [run ~jobs ~tasks ~key ~work ~consume ()] executes tasks
    [0 .. tasks-1] on at most [jobs] worker processes.

    {ul
    {- [key i] names task [i] for traces, backoff seeding and
       quarantine records;}
    {- [inline i] (parent-side, called once when task [i] is first
       dispatched) may short-circuit the worker by returning the result
       directly — this is how a resumed sweep replays checkpointed
       cells without running them;}
    {- [work i] runs {e in a worker process} and its string return is
       the task's payload;}
    {- [on_stats ~task payload] receives the worker's encoded
       {!Obs.Stats} drain (the ['S'] frame sent just before a
       successful ['R']), exactly once per {!Done} task — a worker that
       dies after sending ['S'] is retried and only the surviving
       attempt's snapshot is delivered.  Workers {!Obs.Stats.reset}
       before each task, so the payload is the cell's own contribution.
       Default: absorb into this process's registry with
       {!Obs.Stats.absorb_string}, which keeps drained totals
       byte-identical with the in-domain path;}
    {- [complete i outcome] fires in {e completion} order, as each task
       settles — the hook for prompt checkpointing;}
    {- [consume i outcome] fires in {e strict index order} (a
       completion buffer holds out-of-order outcomes), so output bytes
       never depend on [jobs] or on retry timing.}}

    [should_stop] is polled once per supervision-loop iteration; when it
    first returns [true] the driver stops dispatching, {!terminate}s
    every running task's worker (escalating to [SIGKILL] after
    [config.kill_grace]), reaps them, delivers any replies that did
    complete, and returns — abandoned tasks are neither retried nor
    quarantined, so an interrupted sweep resumes them cleanly.

    Always reaps every worker before it returns, also on exception.

    @raise Invalid_argument on [jobs < 1], [tasks < 0], or an invalid
    [config] (see {!validate_config}). *)
