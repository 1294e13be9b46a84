(** Process-isolated supervised execution: the one child-process engine
    of the harness, and the ordered-delivery driver under
    [Sweep.run ~isolation:`Process] built on it.

    Every in-process containment layer has a blind spot: {!Guard}
    deadlines are only polled at ticks (a blocking, non-ticking thunk
    evades them — see guard.mli), and nothing in-process survives an
    OOM-kill or a stray [SIGKILL] aimed at a worker.  The supervisor
    closes both gaps by forking each task into a {e child process} that
    speaks a tiny length-prefixed protocol over a pipe — {!Wire}
    framing with framed ['R']/['E'] replies and the bare ['H']
    heartbeat, the same audited codec the {!Server} speaks on its
    socket:

    {v
      parent (single domain: fork/select/waitpid loop)
        ├─ child[pid] ── pipe ──▶  'H'            heartbeat (SIGALRM-driven)
        │                          'S' len bytes  stats snapshot (optional,
        │                                         just before a success 'R')
        │                          'R' len bytes  result payload
        │                          'E' len bytes  contained exception text
        └─ child[pid] ...          (then Unix._exit — no buffer flushing)
    v}

    {2 One engine, two drivers}

    The {e engine} ({!create} … {!shutdown}) is the only code in the
    harness that forks, watches, reaps, retries or quarantines a child.
    It owns no loop: its caller's [Unix.select] loop drives it — select
    on {!fds} until {!next_deadline}, hand each readable descriptor to
    {!read}, call {!tick}.  Two drivers sit on it:

    {ul
    {- {!run}, the ordered-delivery driver: tasks [0 .. n-1] with
       results consumed in index order.  {!Sweep}, [fuzz.exe] and the
       experiment tables call it.  On interrupt it {!terminate}s its
       children and abandons their tasks.}
    {- the {!Server}'s socket loop: one task per job.  Admission,
       dedup, the journal, drain and chaos stay the server's: its drain
       lets in-flight children finish and requeues a job whose child
       dies meanwhile ({!abandon}), and a chaos kill ({!kill}) requeues
       the job without charging its retry budget.}}

    The parent is {e single-domain by construction}: in OCaml 5, forking
    from a [Domain.spawn]ed worker is unsafe (the child inherits stopped
    GC machinery), so process isolation replaces {!Pool} rather than
    layering on it — [jobs] children run concurrently under one
    [Unix.select] loop.

    {2 Failure handling}

    A child that returns sends ['R'] and its result is delivered as
    {!Done}.  A child whose thunk raises catches the exception {e
    inside the child} and sends ['E'] — delivered as {!Failed}, never
    retried (the raise is deterministic; retrying would break
    byte-equivalence with the in-domain path).  Everything else is an
    {e abnormal} death — nonzero exit, a signal, a watchdog kill, or
    protocol garbage — and goes through the retry machinery: the task is
    rescheduled with seeded exponential backoff + jitter (deterministic
    given [config.backoff], the task key, and the attempt number) until
    the retry budget is spent, at which point it degrades to a typed
    {!Quarantined} record instead of stalling the run.

    The wall-clock watchdog (per-attempt [config.timeout], or a task's
    own [?timeout]) escalates [SIGTERM] → [config.kill_grace] →
    [SIGKILL]; a task killed this way records a
    {!Misbehavior.Unresponsive} certificate — exactly the case the
    in-process guard cannot catch.  Children reset [SIGTERM] and
    [SIGINT] to their defaults (a parent's own handlers, such as the
    server's drain, must not swallow the watchdog's [SIGTERM]) and
    ignore [SIGPIPE].  Heartbeats are traced for observability but
    play no role in kill decisions (the watchdog is
    pure wall-clock, so a heartbeating-but-stuck task still dies).

    {2 Observability}

    Child lifecycle is emitted through {!Obs.Trace} ([Child_spawn],
    [Child_heartbeat], [Child_kill], [Child_exit] with exit status and
    CPU rusage from [Unix.times], [Cell_retry], [Cell_quarantined]);
    [trace_report] tallies them.  Heartbeat counts are timing-dependent
    and therefore {e not} jobs-count-invariant.  Children detach the trace sink first thing after the fork
    ({!Obs.Trace.detach_in_child}) and reset the inherited {!Obs.Stats}
    shards ({!Obs.Stats.reset}), so game-level events from inside a
    task are not traced under process isolation — the cost of the
    stronger containment — while stats survive the boundary: a child
    drains its own registry into a framed ['S'] snapshot that the
    parent re-absorbs (see [on_stats] below). *)

type config = {
  retries : int;
      (** extra attempts after the first (so [retries = 2] means at most
          3 spawns per task); [0] disables retrying.  Default [2]. *)
  timeout : float option;
      (** per-{e attempt} wall-clock limit in seconds for tasks that do
          not carry their own; [None] (default) disables the watchdog. *)
  kill_grace : float;
      (** seconds between the watchdog's [SIGTERM] and its [SIGKILL]
          escalation.  Default [0.5]. *)
  heartbeat_interval : int;
      (** seconds between child heartbeat bytes; [0] disables them.
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
  | Exited of int  (** abnormal child exit with this nonzero code *)
  | Signaled of int
      (** child killed by this signal (OCaml signal number — e.g. an
          external [kill -9], an OOM kill) *)
  | Unresponsive of { elapsed : float; limit : float; forced : bool }
      (** the watchdog killed the attempt after [elapsed] seconds
          (per-attempt limit [limit]); [forced] means [SIGTERM] was
          ignored and the [SIGKILL] escalation fired *)
  | Protocol of string
      (** the child closed its pipe without a complete reply frame (or
          wrote garbage) yet exited 0 *)

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
  | Done of string  (** the child's thunk returned this string *)
  | Failed of string
      (** the child's thunk raised; payload is [Printexc.to_string] of
          the exception, caught {e in the child} (deterministic raises
          are results, not retryable crashes) *)
  | Quarantined of quarantine  (** retry budget exhausted *)

val outcome_to_string : outcome -> string
(** The result string a sweep prints and checkpoints, and a server
    answers, for an outcome: [Done]'s string verbatim, ["ERROR: "]
    before a [Failed] message — the in-domain path's format for a raise
    — or {!quarantine_to_string}. *)

(** {2 The engine} *)

type 'a t
(** Live children and tasks waiting out a retry backoff, each task
    tagged with the caller's ['a] (compared physically by {!kill}).
    Single-domain, like the {!run} loop on top of it. *)

type settled =
  | Finished of outcome * string option
      (** the task's final outcome; for {!Done}, the child's encoded
          {!Obs.Stats} drain (its ['S'] frame) if it sent one *)
  | Retrying
      (** the attempt died abnormally and is charged; the task respawns
          after its backoff (from {!tick}) *)
  | Abandoned
      (** the attempt died after {!abandon}, or was {!kill}ed: neither
          retried nor charged — the caller decides whether to rerun *)

val create : jobs:int -> config -> 'a t
(** An engine that respawns retries only while fewer than [jobs]
    children run.
    @raise Invalid_argument on [jobs < 1] or an invalid [config]. *)

val spawn : 'a t -> 'a -> key:string -> ?timeout:float -> (unit -> string) -> unit
(** [spawn t tag ~key thunk] forks a child that runs [thunk] and replies
    with its string.  [key] names the task in traces, backoff seeding
    and quarantine records; [timeout] is the per-attempt limit, default
    [config.timeout].  Spawns regardless of [jobs]: the caller checks
    {!room} first. *)

val live : 'a t -> int
(** Children running now. *)

val room : 'a t -> bool
(** Fewer than [jobs] children run. *)

val idle : 'a t -> bool
(** No child runs and no task waits for a retry. *)

val fds : 'a t -> Unix.file_descr list
(** The reply pipes of the live children, to select on for reading. *)

val next_deadline : 'a t -> float option
(** The earliest absolute time at which {!tick} has work: a watchdog
    [SIGTERM] or [SIGKILL] escalation, or a retry coming due. *)

val read : 'a t -> Unix.file_descr -> ('a * settled) option
(** Read from a readable descriptor of {!fds}.  [Some] when the child
    closed its pipe and was reaped: its task's tag and what became of
    it.  [None] otherwise, also for a descriptor the engine does not
    own. *)

val tick : 'a t -> unit
(** Escalate the watchdog, then respawn the retries that are due while
    {!room} lasts — before the caller adds fresh tasks. *)

val kill : 'a t -> 'a -> bool
(** [SIGKILL] the running child of the task tagged ['a], if it has not
    replied yet; the attempt then settles {!Abandoned}.  [false] when
    there was no such child. *)

val abandon : 'a t -> 'a list
(** Stop retrying: drop the tasks waiting for a retry (returning their
    tags), and let every later abnormal death settle {!Abandoned}.
    Running children are left to finish. *)

val terminate : 'a t -> unit
(** {!abandon}, then [SIGTERM] every child that has not replied; the
    watchdog escalates to [SIGKILL] after [config.kill_grace]. *)

val shutdown : 'a t -> unit
(** [SIGKILL] and reap every live child, and drop waiting retries.  For
    every exit path, the exceptional ones included. *)

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
    [0 .. tasks-1], at most [jobs] child processes at a time.

    {ul
    {- [key i] names task [i] for traces, backoff seeding and
       quarantine records;}
    {- [inline i] (parent-side, called once when task [i] is first
       dispatched) may short-circuit the fork by returning the result
       directly — this is how a resumed sweep replays checkpointed
       cells without paying a fork;}
    {- [work i] runs {e in the forked child} and its string return is
       the task's payload;}
    {- [on_stats ~task payload] receives the child's encoded
       {!Obs.Stats} drain (the ['S'] frame sent just before a
       successful ['R']), exactly once per {!Done} task — a child that
       dies after sending ['S'] is retried and only the surviving
       attempt's snapshot is delivered.  Children {!Obs.Stats.reset}
       after the fork, so the payload is the cell's own contribution.
       Default: absorb into this process's registry with
       {!Obs.Stats.absorb_string}, which keeps drained totals
       byte-identical with the in-domain path;}
    {- [complete i outcome] fires in {e completion} order, as each task
       settles — the hook for prompt checkpointing;}
    {- [consume i outcome] fires in {e strict index order} (buffered
       like {!Pool.run}'s), so output bytes never depend on [jobs] or
       on retry timing.}}

    [should_stop] is polled once per supervision-loop iteration; when it
    first returns [true] the driver stops dispatching, {!terminate}s
    every live child (escalating to [SIGKILL] after
    [config.kill_grace]), reaps them, delivers any replies that did
    complete, and returns — abandoned tasks are neither retried nor
    quarantined, so an interrupted sweep resumes them cleanly.

    Always reaps its children, also on exception.

    @raise Invalid_argument on [jobs < 1], [tasks < 0], or an invalid
    [config] (see {!validate_config}). *)
