(** Guarded execution: budgets, deadlines, and exception containment for
    both sides of a game.

    The lower-bound theorems quantify over {e all} algorithms, so the
    engine must stay sound against pathological ones: an algorithm (or
    adversary) that raises, loops, or answers garbage must degrade into
    one typed {!Misbehavior.t} — never hang the process, abort a sweep,
    or get silently misclassified as a defeat.

    A guard is created once per game and carries three mutable meters:

    {ul
    {- a {e color-call budget} — how many times the algorithm instance
       may be asked for a color;}
    {- a {e work budget} — cooperative fuel, consumed by {!tick}; the
       {!Faults.spin} nonterminator and any instrumented loop poll it,
       making "nontermination" a deterministic, bounded event;}
    {- a {e wall-clock deadline}, measured from {!create}, polled at
       every color call and every 256 ticks.}}

    Exception policy everywhere: [Stack_overflow], [Out_of_memory] and
    [Sys.Break] are {e fatal} — re-raised, never recorded as misbehavior
    (a crashing runtime is not a defeated algorithm, and Ctrl-C must
    reach the sweep checkpointer).  Everything else becomes a
    {!Misbehavior.Raised} with its backtrace.

    {b Blocking thunks — a known limitation.}  The deadline is {e
    polled}: it is only checked at color calls and every 256th {!tick}.
    A guarded thunk that blocks without ever ticking — a non-cooperative
    [while true do () done], a blocking syscall, a foreign call — never
    reaches a poll point, so its deadline silently never fires and the
    sweep stalls.  In-process containment cannot close this gap: there
    is no safe way to asynchronously interrupt an OCaml domain.  Run the
    sweep on worker processes ([Sweep.run ~isolation:`Process], as every
    binary does) to cover it: the {!Supervisor}'s wall-clock
    watchdog kills the whole worker process from outside and records a
    typed {!Misbehavior.Unresponsive} certificate, which is exactly the
    case this guard cannot catch.

    Single-domain: the {e ambient} guard that {!tick} consults is one
    plain value per process, the innermost guarded call in progress.
    A task may spawn a domain (the {!Supervisor} then retires its
    worker), but it must not record into [Obs], [Guard] or the thm1
    game cache from that domain: a {!tick} there would charge whatever
    guard the main domain has installed.  {!create} enables backtrace
    recording on the calling domain, since guards are created inside
    the cell that plays the game. *)

type limits = {
  max_color_calls : int option;  (** color calls allowed per guard *)
  max_work : int option;  (** {!tick} fuel allowed per guard *)
  deadline : float option;  (** wall-clock seconds since {!create} *)
}

val no_limits : limits

val default_limits : limits
(** No call cap, no deadline, a generous 50M-tick work budget (so an
    unconfigured guard still stops cooperative spinners). *)

type t

exception Misbehaved of Misbehavior.t
(** Raised out of a guarded color call after the misbehavior has been
    recorded on the guard; executors contain it like any algorithm
    exception, and the engine reads the typed form back via {!fault}. *)

val create : ?limits:limits -> unit -> t
(** Also enables [Printexc.record_backtrace] (a global runtime setting)
    so contained exceptions carry their backtraces; merely linking the
    library has no such side effect. *)

val fault : t -> Misbehavior.t option
(** First misbehavior recorded by this guard, if any. *)

val color_calls : t -> int
val work : t -> int

val is_fatal : exn -> bool
(** [Stack_overflow | Out_of_memory | Sys.Break]. *)

val tick : ?cost:int -> unit -> unit
(** Cooperative poll point: consumes [cost] (default 1) work units from
    the innermost active guard and checks its budgets.  A no-op when no
    guarded call is in progress, so instrumented algorithms run
    unchanged outside the harness. *)

val algorithm : t -> Models.Algorithm.t -> Models.Algorithm.t
(** Wrap an algorithm so every [instantiate] and every color call runs
    under the guard: budgets and deadline are checked per call, the
    guard is installed for {!tick} during the call, non-fatal exceptions
    (including from [instantiate]) are recorded and re-raised as
    {!Misbehaved}, and once faulted every later call fails fast with the
    same certificate. *)

val capture : t -> (unit -> 'a) -> ('a, Misbehavior.t) result
(** Run a whole adversary [play] (or any engine step) under containment:
    [Error] carries the typed misbehavior for non-fatal exceptions
    (including {!Misbehaved} escaping an unguarded path); a
    {!Models.Run_stats.Dishonest_transcript} escape maps to
    [Misbehavior.Dishonest_transcript] rather than a generic [Raised];
    fatal exceptions re-raise. *)
