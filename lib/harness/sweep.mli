(** Crash-tolerant, checkpointed — and optionally parallel — sweep
    runner for the [bin/sweep_thm*] binaries.

    A sweep is an ordered list of {e cells}, each with a unique key and
    a thunk producing its (possibly multi-line) result string.  With a
    [?checkpoint] file, every finished cell is appended as one
    escaped line-delimited record ([key TAB result]) and flushed
    immediately; with [~resume:true], cells whose keys already appear in
    the file replay their recorded result instead of re-running — so a
    killed-and-resumed sweep prints byte-identical final output to an
    uninterrupted one.

    Cells run in one of two places (see {!isolation}): one after
    another in the calling domain — the reference, and the default — or
    on [jobs] supervised worker processes, which is how the binaries
    run every sweep.  The observable contract is the same either way:

    {ul
    {- {e ordered output} — results are printed to [ppf] in cell order,
       on the calling domain; on workers, a completion buffer holds
       out-of-order results until their turn;}
    {- {e checkpoint integrity} — records are appended under a mutex and
       flushed whole, so the file keeps the newline-terminated
       torn-record semantics; on workers they land in completion order,
       so equivalent checkpoints are equal as sets of records;}
    {- {e deterministic replay} — [--resume] output is byte-identical
       whatever [jobs] and isolation were on the original or the
       resuming run (replayed results come from the checkpoint table,
       never from re-execution);}
    {- {e stats persistence} — when {!Stats} is enabled, each record's
       value carries the cell's own stats contribution after a [NUL]
       byte ({!Obs.Stats.scoped} in-domain, the supervisor's ['S'] frame
       on workers); replaying a cell re-absorbs its delta, so a
       killed-and-resumed sweep drains the same totals as an
       uninterrupted one.  With stats disabled the journal bytes are
       unchanged from the pre-stats format, and pre-stats journals
       resume cleanly (they simply carry no deltas);}
    {- {e per-cell containment} — a cell raising a non-fatal exception
       records and prints ["ERROR: ..."] and only that cell degrades.}}

    Interrupts and fatal errors: in-domain, SIGINT is trapped as
    [Sys.Break] — fatal to every containment layer ({!Guard.is_fatal}),
    so an interrupt landing inside guarded algorithm or adversary code
    aborts the cell instead of being recorded as its result — and a
    fatal exception ([Stack_overflow], [Out_of_memory]) re-raises.  On
    workers, SIGINT stops the supervisor, which terminates the running
    cells (they rerun on resume) and reaps its workers.  Either way the
    sweep surfaces as {!Interrupted} once the checkpoint is flushed and
    closed.  Only newline-terminated checkpoint records replay, so a
    record torn by a kill mid-write reruns its cell. *)

type cell = { key : string; run : unit -> string }

(** The checkpoint journal behind [?checkpoint] — and behind the
    {!Server}'s crash-recovery log.  A journal is a line-delimited file
    of escaped [key TAB value] records under a [#sweep-checkpoint vN]
    header; appends are mutex-serialized, flushed whole, and traced as
    [Checkpoint_flush] events, so a kill can tear at most the final
    record and {!Journal.load} drops exactly that torn tail.

    Since v2 every appended record carries an integrity trailer
    ([... TAB @crc32hex:length], checksummed with {!Wire.crc32}); a
    record whose trailer is missing or fails verification — torn,
    bit-flipped, hand-edited — is {e skipped} on load with a typed
    warning ([Journal_corrupt] trace event, one stderr line), so a
    resume reruns exactly the affected cells instead of replaying
    corrupted bytes.  v0 (headerless) and v1 files replay unchanged;
    resuming into one appends a v2 header line so new records are
    CRC-protected while the old prefix keeps its original parsing
    rules. *)
module Journal : sig
  val version : int
  (** Journal format version, [2].  {!load} accepts this version and
      older (a headerless file is v0) and rejects newer. *)

  val header : string
  (** The header line written at the top of a fresh journal. *)

  type t
  (** An open journal, ready to append. *)

  val open_out : ?resume:bool -> string -> t
  (** Open [path] for appending.  Without [~resume] an existing file is
      replaced by a fresh headered one — the header is written to a tmp
      file and atomically renamed into place, so a kill during creation
      can never leave a half-written header.  With [~resume:true]
      records are appended after repairing a torn final record (and,
      for a pre-v2 file, appending a v2 header line). *)

  val append : t -> key:string -> string -> unit
  (** Append one record — escaped, CRC-trailered, and flushed whole. *)

  val close : t -> unit

  val load : string -> (string * string) list
  (** All complete, integrity-checked records in file order (a missing
      file is []).  Newline-terminated records only: a torn final
      record is dropped, and a v2 record failing its CRC/length check
      is skipped with the typed warning described above.  Duplicate
      keys are all returned — callers that want last-record-wins
      semantics use {!load_table}.
      @raise Invalid_argument on a journal written by a newer format
      version. *)

  val load_table : string -> (string, string) Hashtbl.t
  (** {!load} folded into a table, later records superseding earlier
      ones — the replay semantics of [--resume]. *)

  type corruption = { line : int; reason : string }
  (** One skipped record: 1-based line number in the journal file and a
      human-readable reason (malformed trailer, length mismatch, crc
      mismatch, missing separator). *)

  type fsck_report = {
    version : int;  (** last header version seen; 0 = headerless v0 *)
    records : int;  (** records that parsed and verified *)
    corrupt : corruption list;  (** skipped records, in file order *)
  }

  val fsck : string -> fsck_report
  (** Integrity-check a journal without replaying it — the engine
      behind [trace_report.exe journal-fsck].  Emits no warnings
      itself; corruption is returned, not printed.
      @raise Invalid_argument like {!load} on a newer-format journal. *)
end

val join_delta : string -> string -> string
(** [join_delta out delta] is the checkpoint record value carrying a
    stats contribution: [out] when [delta] is empty, else
    [out NUL delta].  [NUL] occurs in neither side (results are
    printable text, the delta is compact JSON), so {!split_delta}
    inverts it.  The {!Server} journals its ["d:"] records with the
    same scheme. *)

val split_delta : string -> string * string
(** Inverse of {!join_delta}; a value with no [NUL] (any pre-stats
    journal) splits as [(value, "")]. *)

val replay_value : string -> string
(** {!split_delta}, absorbing the delta into {!Stats} (when enabled)
    and returning the output part — the one-stop replay helper for
    journal records. *)

type isolation = [ `In_domain | `Process ]
(** Where cell thunks execute.

    [`In_domain] (the default): one after another in the calling
    domain, whatever [jobs] is.  It never forks and never spawns a
    domain, so cells may write into the caller's own data — the
    in-process reference that tests and the layered benchmark's oracle
    compare worker output against.

    [`Process]: on worker processes under {!Supervisor.run}, one warm
    worker per [jobs] slot, forked when a cell first needs it; every
    binary runs its sweeps this way.  The observable contract is
    preserved — output in cell order, byte-identical to the in-domain
    mode for every cell that returns or raises deterministically, same
    checkpoint format, [--resume] equivalence across modes and jobs
    counts — and three behaviors are {e gained}: a cell killed from
    outside (OOM, stray SIGKILL) is retried with seeded backoff and then
    degrades to one ["QUARANTINED ..."] result line instead of
    destroying the sweep; a cell that blocks without ticking is killed
    by the wall-clock watchdog ({!Misbehavior.Unresponsive} — see the
    guard's documented blind spot); and in-process-fatal conditions
    ([Stack_overflow], [Out_of_memory]) inside a cell degrade to
    ["ERROR: ..."] for that cell instead of aborting the run.
    Quarantined cells are checkpointed like any result, so a resume
    replays the quarantine verbatim (delete its line to rerun the
    cell).  A worker brackets each cell with [Cell_start] and
    [Cell_finish] and ships the cell's trace events to this process,
    which relays them tagged with the worker's slot
    ({!Obs.Flight.relay}); a quarantined cell's events died with its
    worker, and this process reports the cell itself. *)

exception Interrupted
(** Raised at the sweep boundary after a SIGINT (and honored if a cell
    thunk raises it directly): the sweep stopped cleanly, completed
    cells are checkpointed. *)

val run :
  ?resume:bool ->
  ?checkpoint:string ->
  ?jobs:int ->
  ?isolation:isolation ->
  ?supervisor:Supervisor.config ->
  ppf:Format.formatter ->
  cell list ->
  unit
(** Run the cells, printing each result line to [ppf] in cell order.
    Without [~resume] an existing checkpoint file is truncated.  Cell
    thunks must not share mutable state with each other: on workers,
    what a cell writes stays in its worker.

    [?isolation] selects where cells run (see {!isolation}); [?jobs]
    (default 1) bounds the worker processes under [`Process] and is
    unused in-domain; [?supervisor] tunes the [`Process] backend's
    retry/watchdog knobs (ignored under [`In_domain]) — defaults to
    {!Supervisor.default_config}.

    @raise Invalid_argument on duplicate cell keys, [jobs < 1], or an
    invalid supervisor config. *)

val int_axis : ?flag:string -> string -> int list
(** Parse a comma-separated parameter axis: ["1,2,8"] -> [[1; 2; 8]].
    [?flag] names the command-line flag in error messages.
    @raise Invalid_argument on non-integer entries or an empty axis —
    an empty axis would silently produce a zero-cell sweep. *)

val string_axis : ?flag:string -> string -> string list
(** Parse a comma-separated string axis, trimming blanks.
    @raise Invalid_argument on an empty axis, naming [?flag] like
    {!int_axis}. *)
