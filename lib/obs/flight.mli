(** The flight recorder: an in-memory ring of {!Trace.event}s, written
    to disk in a compact binary encoding {e only on anomaly}.

    NDJSON tracing (E9) costs +328% on a hot game (the committed
    BENCH_stats_overhead.json, 2 cores) because every step formats JSON
    and writes to the file.  The flight recorder records
    the same event vocabulary into a ring buffer — no formatting, no
    I/O, not even encoding (the ring holds the record values; the
    binary codec runs at flush time) — and writes bytes only when
    something worth investigating happens: a misbehavior certificate, a
    quarantine, a watchdog kill, a fault injection, or a failed audit.
    A clean million-game campaign leaves just the header on disk; a
    crash leaves the last [cap] events each involved process saw,
    exactly when forensics wants them.

    Single-domain: the recorder and its rings are plain state and take
    no lock.  A task may spawn a domain (the [Harness.Supervisor] then
    retires its worker), but it must not record into [Obs], [Guard] or
    the thm1 game cache from that domain.

    {2 Wire format}

    Each record is one frame in {!Harness.Wire}'s framing — tag ['F'],
    4-byte big-endian payload length, payload — so any Wire decoder can
    walk a flight file.  The payload is the {!Trace.record} envelope,
    the event's binary id and its fields, walked generically over the
    one event declaration, {!Trace.kinds}: zigzag-LEB128 varints,
    length-prefixed strings, 8-byte IEEE floats, one byte per bool and
    a presence byte per option.  A [Step] event is ~25 bytes against
    ~120 as NDJSON.  The file stays binary because anomaly-heavy runs
    flush tens of thousands of records: NDJSON would triple their size
    and add ~3 µs per record.  The first frame of every file is the
    {!Trace.Trace_header}, so a flight file is self-describing;
    {!read_file} accepts only this {!Trace.version}, since binary ids
    are positions in {!Trace.kinds}.  [bin/trace_report.exe] sniffs the
    first byte (['F'] vs ['{']) and renders both formats identically.

    {2 Scope}

    Rings are per stream: an anomaly flushes the ring of the stream that
    saw it (the events causally near the anomaly), not every ring.  A
    stream is this process, or a supervised worker process relayed by
    {!relay}.  Each flush appends with one [write], so streams
    interleave at flush granularity.  Record [i] is the per-stream
    sequence number, [w] the stream (0 for this process, or the
    worker's 1-based slot) — per-worker streams stay causally ordered,
    as [trace_report] expects.

    A worker process records its task's events into a ring of its own
    ({!capture_in_child}) and ships them with its reply, but only when
    its parent has somewhere to put them: every event when the parent
    streams NDJSON, and only the events of a task that hit an anomaly
    when the parent has just a recorder.  The parent relays them into
    its NDJSON sink and into the ring of that worker's stream, where an
    anomaly flushes as it would have in-process.  A clean run therefore
    still leaves only the header, whichever process ran its cells. *)

val default_cap : int
(** Events retained per ring (4096). *)

val on : unit -> bool
(** Whether a flight sink is installed. *)

val record : Trace.event -> unit
(** Append one event to this process's ring (no-op without a sink);
    flush the ring if the event is {!Trace.anomalous}.  Installed as
    the {!Trace.set_hook} consumer by {!with_sink} — call sites keep
    emitting through {!Trace.emit}. *)

val flush : unit -> unit
(** Force-flush this process's ring (e.g. before a deliberate abort). *)

val with_sink :
  ?program:string ->
  ?cap:int ->
  ?on_error:(string -> unit) ->
  path:string ->
  (unit -> 'a) ->
  'a
(** Truncate [path], write the header frame, install the recorder (and
    the {!Trace.set_hook} tap) for the duration of the callback, then
    uninstall — also on exception.  If any anomaly flushed during the
    callback, teardown flushes this process's ring and every relayed
    worker's ring once more, so an anomalous run's file also carries the
    events after the last anomaly (the verdict, the audit); a clean run
    leaves only the header on disk.  Events recorded under a previous
    sink are dropped, not inherited.  Nesting raises
    [Invalid_argument].

    Like {!Trace.with_sink}, the recorder catches its own I/O errors:
    the first one (writing the header or any flush) detaches it, the
    callback runs on, and after it returns [on_error] gets the error's
    message (default: raise [Sys_error]). *)

val with_sink_opt :
  ?program:string ->
  ?cap:int ->
  ?on_error:(string -> unit) ->
  string option ->
  (unit -> 'a) ->
  'a
(** [None] is just the callback; [Some path] is {!with_sink}. *)

val frame : Trace.record -> string
(** One record's frame: tag, length and payload, as a flush writes it. *)

val is_flight_file : string -> bool
(** True when the file exists, is non-empty and starts with the frame
    tag ['F'] — the sniff [trace_report] uses to pick a decoder. *)

val read_file : string -> Trace.record list
(** Decode a whole flight file.
    @raise Json.Parse_error on a malformed frame, or when the first
    frame is not a {!Trace.Trace_header} of this {!Trace.version},
    naming the byte offset (same exception family as
    {!Trace.read_file}, so readers handle both formats uniformly). *)

(** {2 Worker processes}

    How a supervised worker process's events reach its parent: the
    worker captures each task's events with {!begin_task} and
    {!end_task} and ships the frames in its reply; the parent hands them
    to {!relay}.  The frames are this module's file frames, so every
    event kind crosses unchanged. *)

type capture
(** What a worker records of its tasks, decided once at fork. *)

val capture_in_child : unit -> capture
(** Call in a freshly forked worker process before anything emits: it
    detaches the inherited NDJSON sink and recorder
    ({!Trace.detach_in_child}) and notes what the parent observes.  A
    parent with an NDJSON sink gets every event of every task; a parent
    with only a recorder gets a task's events only when one of them was
    {!Trace.anomalous}; a parent with neither gets nothing, and then
    nothing is recorded either ({!Trace.on} stays false).  A capturing
    worker's own workers capture as it does. *)

val begin_task : capture -> unit
(** Start a task: drop whatever sink or hook the previous task left, and
    start recording this task's events if the parent wants any. *)

val end_task : capture -> string option
(** Stop recording and return the frames to ship, or [None] when there
    are none: nothing was recorded, or the parent has only a recorder and
    the task saw no anomaly.  The last {!default_cap} events before each
    anomaly are kept, like a recorder's flush; with an NDJSON parent,
    every event is. *)

val relay : w:int -> string -> unit
(** In the parent: re-emit the events of a shipment from the worker in
    slot [w] — to the NDJSON sink ({!Trace.relay}, envelope [w], the
    worker's timestamps) and into the installed recorder's ring for
    stream [w], whose anomalies flush it.  A garbled shipment is cut
    short, never raised. *)
