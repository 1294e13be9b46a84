(** Typed, low-overhead event tracing for the guarded game engine.

    A trace is a stream of newline-delimited JSON records written to one
    {e sink}.  Each record wraps one {!event} in an envelope:

    {v {"i":12,"w":0,"ts":0.00153,"ev":"step", ...event fields...} v}

    where [i] is a global emission index (total order over the whole
    trace — records are written to the file in [i] order), [w] names
    the stream that emitted the event, and [ts] is seconds since the
    sink was opened.  [w] is 0 for an event emitted in this process,
    and the worker's 1-based [--jobs] slot for an event a supervised
    worker process captured and its parent {!relay}ed.  A reader
    demultiplexes per-worker streams by [w]: events with equal [w] are
    causally ordered.  A relayed event keeps the time the worker
    emitted it, so [ts] need not grow with [i] across streams.

    {2 One declaration, two codecs}

    Every event constructor is declared once, in {!kinds}: its NDJSON
    tag, its binary id (its position in the array) and its ordered,
    typed fields.  {!store} and {!of_values} map an event to and from
    its field values; the NDJSON codec here and {!Flight}'s binary
    codec are generic walkers over that declaration, so adding an event
    is one constructor, one {!kinds} entry and one line in each mapping.
    [test/golden/trace_codec.expected] pins both formats' bytes.

    {2 Overhead contract}

    With no sink installed, {!on} is two loads and {!emit} is a no-op.
    Instrumentation sites must guard event {e construction} behind
    {!on} — [if Trace.on () then Trace.emit (Step {...})] — so a
    disabled trace allocates nothing.  [bench/main.exe --stats-overhead]
    pins this: it times the guarded game with every hook disabled twice,
    interleaved, as [baseline] and [control] (BENCH_stats_overhead.json).

    {2 One domain, many processes}

    The library is single-domain: the sink and the hook are plain
    state, and a record is written without a lock.  A task may spawn a
    domain (the [Harness.Supervisor] then retires its worker), but it
    must not record into [Obs], [Guard] or the thm1 game cache from
    that domain.  A parallel sweep's workers are processes: each
    captures its task's events and ships them with its reply, and the
    parent relays them into this sink ({!relay}, through
    {!Flight.relay}).  Event {e interleaving} across workers follows
    completion order and is not deterministic; determinism lives in
    {!Stats}, whose drained snapshot is jobs-count-invariant.

    The first record of every trace is a {!Trace_header} carrying the
    format version ({!version}) and the emitting program's name. *)

val version : int
(** Trace format version, [7].  v2 added the supervisor child-lifecycle
    events; v3 the job-server events; v4 the game-cache [Canon_hit]
    event; v5 the multi-server dispatch events and [Journal_corrupt].
    v6 deletes the retired domain pool's [worker_start] and
    [worker_stop], so every kind after [checkpoint_flush] moved down two
    binary ids.  v7 deletes the worker liveness event that followed
    [child_spawn] (a worker sends nothing while its task runs), so every
    later kind moved down one binary id.  (v5's dispatch kinds were the
    tail of {!kinds} and went without a bump.)

    The NDJSON reader decodes by tag: it rejects newer versions rather
    than misparse them, and reads older traces unless they hold a
    deleted kind.  Binary ids are positions in {!kinds}, so the flight
    reader accepts only this version. *)

type event =
  | Trace_header of { version : int; program : string }
  | Cell_start of { key : string }  (** a sweep cell began executing *)
  | Cell_finish of { key : string; status : string }
      (** [status] is ["ok"], ["error"], or ["replayed"] (resumed from a
          checkpoint without re-running) *)
  | Checkpoint_flush of { key : string; bytes : int }
      (** one record appended and flushed to the checkpoint file *)
  | Game_start of {
      adversary : string;
      algorithm : string;
      n : int;
      max_color_calls : int option;
      max_work : int option;
      deadline : float option;
    }  (** a guarded game began, with its guard limits *)
  | Game_verdict of {
      adversary : string;
      algorithm : string;
      n : int;
      outcome : string;  (** [Game.outcome_label] *)
      guaranteed : bool;
      color_calls : int;  (** guard meter at verdict *)
      work : int;  (** guard meter at verdict *)
    }
  | Step of {
      executor : string;
      step : int;
      target : int;
      revealed : int;
      max_view : int;
    }  (** one presentation step, with cumulative run counters *)
  | Reveal of { executor : string; step : int; fresh : int; revealed : int }
      (** the ball revealed at a step: [fresh] new nodes, [revealed]
          total *)
  | Color_call of { calls : int; work : int }
      (** guard-meter snapshot at a color call *)
  | Audit of { executor : string; ok : bool; detail : string }
      (** transcript audit result (end-of-run violation scan, or a
          [--validate]/[--paranoid] replay check) *)
  | Fault_injected of { tag : string; call : int }
      (** a [Harness.Faults] combinator actually fired *)
  | Misbehavior of { label : string; detail : string }
      (** a guard recorded its first misbehavior certificate *)
  | Child_spawn of { key : string; pid : int; attempt : int }
      (** the supervisor forked a worker process, once per worker: for
          the cell [key] that first needed it ([attempt] is that cell's,
          0 for the first try); the worker then runs cell after cell *)
  | Child_kill of { key : string; pid : int; signal : string; elapsed : float }
      (** the supervisor sent [signal] (["sigterm"] or ["sigkill"]) to
          the worker running cell [key] — a watchdog escalation, a
          caller's kill or an interrupt — after [elapsed] seconds of
          cell wall-clock *)
  | Child_exit of {
      key : string;  (** the cell it ran last, or was running *)
      pid : int;
      status : string;  (** ["exit:N"] or ["signal:NAME"] *)
      cpu_user : float;  (** the worker's user CPU seconds over its
                             life, from [Unix.times] *)
      cpu_sys : float;  (** its system CPU seconds *)
    }  (** a worker process was reaped, once per worker *)
  | Cell_retry of { key : string; attempt : int; delay : float }
      (** a failed cell was rescheduled: [attempt] is the upcoming try
          (1-based), [delay] the seeded backoff in seconds *)
  | Cell_quarantined of { key : string; attempts : int; reason : string }
      (** a cell exhausted its retry budget and was quarantined *)
  | Server_start of { socket : string; jobs : int; queue_limit : int }
      (** the job server opened its front door *)
  | Conn_open of { conn : int }  (** a client connection was accepted *)
  | Conn_close of { conn : int; reason : string }
      (** a client connection ended; [reason] is ["eof"], ["error"],
          ["protocol"], or a chaos-injection tag *)
  | Job_submit of { id : string; kind : string; disposition : string }
      (** a submit frame was admitted; [disposition] is ["new"] (fresh
          job), ["inflight"] (duplicate of a queued/running job — the
          connection attached as a waiter), or ["cached"] (duplicate of
          a finished job — the recorded result was replayed) *)
  | Job_reject of { id : string; queued : int; limit : int }
      (** the admission queue was full: the submit was answered with a
          typed rejection instead of unbounded memory *)
  | Job_start of { id : string; attempt : int }
      (** a job began executing ([attempt] is 0 for the first try) *)
  | Job_done of { id : string; status : string }
      (** a job reached its terminal result; [status] is ["ok"],
          ["error"], or ["quarantined"] *)
  | Server_drain of { queued : int; running : int }
      (** SIGTERM: the server stopped accepting, with this many jobs
          still queued (journaled for restart) and running (finished
          before exit) *)
  | Chaos_injected of { kind : string }
      (** the [--chaos] harness fired one injection: ["drop_conn"],
          ["partial_frame"], ["truncate_frame"], ["kill_child"], or
          ["corrupt_journal"] *)
  | Canon_hit of { kind : string; key : string }
      (** the thm1 game cache behind [Jobs_catalog.thm1_cell] answered
          a sweep cell from a cached adversary report: [kind] is
          ["game"] and [key] the resolved cell parameters.  Traces written before the per-step
          cache was deleted may also carry [kind = "step"]. *)
  | Journal_corrupt of { path : string; line : int; reason : string }
      (** a checkpoint/journal record failed its v2 CRC/length check and
          was skipped on load ([line] is 1-based); the affected cell or
          job reruns instead of replaying corrupted bytes *)

type record = { i : int; w : int; ts : float; ev : event }

(** {2 Schema} *)

type ty = Int | Float | Bool | String | Int_opt | Float_opt
(** A field's type.  An absent option is [null] in NDJSON. *)

type value = I of int | F of float | B of bool | S of string | Absent
(** A field's value; [Absent] only for an absent option field. *)

type kind = {
  tag : string;  (** the NDJSON ["ev"] value *)
  fields : (string * ty) list;  (** names and types, in encoding order *)
  hot : bool;
      (** emitted per presentation step or color call ([Step], [Reveal],
          [Color_call]): most of a trace's records, so consumers may
          amortize per-event costs over them *)
}

val kinds : kind array
(** One entry per constructor of {!event}, in declaration order; an
    event's binary id is its index. *)

type columns
(** Preallocated room for the field values of a fixed number of events,
    one slot each, in unboxed arrays: ints and bools, floats, strings,
    and presence bytes for option fields. *)

val columns : int -> columns
(** Room for that many events of any kind. *)

val store : columns -> int -> event -> int
(** [store c k ev] writes the event's field values into slot [k] and
    returns its id: the one event-to-values mapping.  It allocates
    nothing, so the flight ring stores per-step events with it on the
    hot path. *)

val load : columns -> int -> int -> value list
(** [load c k id] reads back the values of the event with id [id] held
    in slot [k]. *)

val to_values : event -> int * value list
(** The event's id and its field values, in [kinds.(id).fields] order
    ({!store} then {!load}). *)

val of_values : int -> value list -> event
(** Inverse of {!to_values}.
    @raise Json.Parse_error when the values do not fit [kinds.(id)], or
    on a {!Trace_header} newer than {!version}. *)

val anomalous : event -> bool
(** Events that mean something went wrong: [Misbehavior],
    [Cell_quarantined], [Child_kill], [Fault_injected], and [Audit] with
    [ok = false].  {!Flight} flushes its ring on them. *)

(** {2 Emission} *)

val on : unit -> bool
(** Whether a sink {e or hook} is installed — the cheap gate every
    instrumentation site checks before constructing an event. *)

val emit : event -> unit
(** Append one record to the installed sink with envelope [w] 0, then
    hand it to the installed hook (no-op without either). *)

val set_hook : (event -> unit) option -> unit
(** Install a secondary in-process event consumer, called after the
    NDJSON sink.  This is how {!Flight} taps the event stream without
    the sites knowing about it; one slot, last set wins. *)

val relay : w:int -> at:float -> event -> unit
(** Append one record to the installed sink (no-op without one) with
    envelope [w] and the absolute time [at] ([Unix.gettimeofday]
    seconds), for an event another process emitted.  The hook is not
    called: {!Flight.relay} feeds the recorder itself. *)

val detach_in_child : unit -> bool
(** Drop the installed sink and hook {e in this process} without
    closing anything, and say whether a sink was installed.
    A forked child calls it (through {!Flight.capture_in_child}) before
    it emits anything: the child inherits the parent's buffered
    [out_channel], and any emission (or buffer flush at exit) would
    corrupt the parent's NDJSON stream.  Children must also terminate
    via [Unix._exit], which skips [at_exit] flushing of inherited
    buffers. *)

val with_sink :
  ?program:string -> ?on_error:(string -> unit) -> path:string -> (unit -> 'a) -> 'a
(** Open [path], write the {!Trace_header}, install the sink for the
    duration of the callback, then flush, close and uninstall — also on
    exception.  Nesting is not supported: a sink installed while another
    is active raises [Invalid_argument].

    Observers never raise into the code they observe: the sink catches
    its own I/O errors, opening [path] included.  The first one detaches
    it, the callback runs on, and after it returns [on_error] gets the
    error's message (default: raise [Sys_error]).  If the callback
    raises, its exception wins and [on_error] is not called. *)

val with_sink_opt :
  ?program:string -> ?on_error:(string -> unit) -> string option -> (unit -> 'a) -> 'a
(** [with_sink_opt None f] is [f ()]; [with_sink_opt (Some path) f] is
    [with_sink ~path f] — the shape every [--trace FILE] flag needs. *)

(** {2 Codec} *)

val record_to_string : record -> string
(** One canonical NDJSON line, without the trailing newline. *)

val record_of_json : Json.t -> record
(** @raise Json.Parse_error on envelopes or events this version does not
    understand (including a [Trace_header] with a newer [version]). *)

val read_file : string -> record list
(** Parse a whole trace, strictly: any malformed line raises
    [Json.Parse_error] naming the line number.  The header is a record
    like any other; {!record_of_json} has already rejected incompatible
    versions. *)
