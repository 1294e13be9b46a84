(** The flight recorder: a per-domain in-memory ring of {!Trace.event}s,
    written to disk in a compact binary encoding {e only on anomaly}.

    NDJSON tracing (E9) costs ~121% on a hot game because every step
    formats JSON and hits the file through a shared mutex.  The flight
    recorder records the same event vocabulary into a domain-private
    ring buffer — no lock, no formatting, no I/O, not even encoding
    (the ring holds the record values; the binary codec runs at flush
    time) — and writes bytes
    only when something worth investigating happens: a misbehavior
    certificate, a quarantine, a watchdog kill, a fault injection, or a
    failed audit.  A clean million-game campaign leaves just the header
    on disk; a crash leaves the last [cap] events each involved domain
    saw, exactly when forensics wants them.

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
    {!Trace.Trace_header}, so a flight file is self-describing and
    {!read_file} rejects newer format versions like the NDJSON reader
    does.  [bin/trace_report.exe] sniffs the first byte (['F'] vs
    ['{']) and renders both formats identically.

    {2 Scope}

    Rings are domain-private: an anomaly flushes the ring of the domain
    that saw it (the events causally near the anomaly), not every
    domain's.  Flushes append under a process-wide mutex with one
    [write] each, so concurrent anomalies interleave at flush
    granularity.  Record [i] is the per-domain sequence number, [w] the
    domain id — per-worker streams stay causally ordered, as
    [trace_report] expects.  Forked children are detached by
    {!Trace.detach_in_child} along with the NDJSON sink: child-side
    anomalies surface in the parent as quarantine/kill events, which
    flush the parent's ring. *)

val default_cap : int
(** Events retained per domain ring (4096). *)

val on : unit -> bool
(** Whether a flight sink is installed. *)

val record : Trace.event -> unit
(** Append one event to this domain's ring (no-op without a sink);
    flush the ring if the event is {!Trace.anomalous}.  Installed as
    the {!Trace.set_hook} consumer by {!with_sink} — call sites keep
    emitting through {!Trace.emit}. *)

val flush : unit -> unit
(** Force-flush this domain's ring (e.g. before a deliberate abort). *)

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
    callback, teardown flushes the calling domain's ring once more, so
    an anomalous run's file also carries the events after the last
    anomaly (the verdict, the audit); a clean run leaves only the
    header on disk.  Rings from a previous sink are invalidated, not
    inherited.  Nesting raises [Invalid_argument].

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
    @raise Json.Parse_error on a malformed frame or an incompatible
    header version, naming the byte offset (same exception family as
    {!Trace.read_file}, so readers handle both formats uniformly). *)
