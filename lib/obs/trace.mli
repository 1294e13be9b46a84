(** Typed, low-overhead event tracing for the guarded game engine.

    A trace is a stream of newline-delimited JSON records written to one
    {e sink}.  Each record wraps one {!event} in an envelope:

    {v {"i":12,"w":0,"ts":0.00153,"ev":"step", ...event fields...} v}

    where [i] is a global emission index (total order over the whole
    trace — records are written to the file in [i] order), [w] is the
    id of the domain that emitted the event (so a reader can demultiplex
    per-worker streams: events with equal [w] are causally ordered), and
    [ts] is seconds since the sink was opened.

    {2 One declaration, two codecs}

    Every event constructor is declared once, in {!kinds}: its NDJSON
    tag, its binary id (its position in the array) and its ordered,
    typed fields.  {!store} and {!of_values} map an event to and from
    its field values; the NDJSON codec here and {!Flight}'s binary
    codec are generic walkers over that declaration, so adding an event
    is one constructor, one {!kinds} entry and one line in each mapping.
    [test/golden/trace_codec.expected] pins both formats' bytes.

    {2 Overhead contract}

    With no sink installed, {!on} is a single atomic load and {!emit} is
    a no-op.  Instrumentation sites must guard event {e construction}
    behind {!on} — [if Trace.on () then Trace.emit (Step {...})] — so a
    disabled trace allocates nothing.  The [harness_overhead] bench pins
    this (BENCH_trace_overhead.json).

    {2 Concurrency}

    One sink serves every domain: records are appended under a mutex,
    whole lines at a time, so a trace written by a parallel sweep is
    still one valid NDJSON stream.  Event {e interleaving} across
    domains follows completion order and is not deterministic; determinism
    lives in {!Stats}, whose drained snapshot is jobs-count- and
    isolation-invariant.

    The first record of every trace is a {!Trace_header} carrying the
    format version ({!version}) and the emitting program's name. *)

val version : int
(** Trace format version, [5] (v2 added the supervisor child-lifecycle
    events; v3 the job-server events; v4 the memo-cache [Canon_hit]
    event; v5 the multi-server dispatch events and [Journal_corrupt]).
    Readers must reject newer versions rather than misparse them;
    older traces parse fine under a newer reader.

    v5's five multi-server dispatch kinds (binary ids 31–35) are
    retired, together with the dispatcher that emitted them.  They were
    the tail of {!kinds}, so every other id keeps its value; a v5 trace
    that holds one no longer decodes.  A new kind that reuses ids 31–35
    must bump [version], so that an old v5 trace cannot be misread as
    it. *)

type event =
  | Trace_header of { version : int; program : string }
  | Cell_start of { key : string }  (** a sweep cell began executing *)
  | Cell_finish of { key : string; status : string }
      (** [status] is ["ok"], ["error"], or ["replayed"] (resumed from a
          checkpoint without re-running) *)
  | Checkpoint_flush of { key : string; bytes : int }
      (** one record appended and flushed to the checkpoint file *)
  | Worker_start of { index : int }  (** pool worker domain spawned *)
  | Worker_stop of { index : int; tasks : int }
      (** pool worker finished, having run [tasks] tasks *)
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
      (** the supervisor forked a worker process for a cell ([attempt]
          is 0 for the first try) *)
  | Child_heartbeat of { key : string; pid : int }
      (** a liveness byte arrived from a worker process *)
  | Child_kill of { key : string; pid : int; signal : string; elapsed : float }
      (** the watchdog sent [signal] (["sigterm"] or ["sigkill"]) after
          [elapsed] seconds of cell wall-clock *)
  | Child_exit of {
      key : string;
      pid : int;
      status : string;  (** ["exit:N"] or ["signal:NAME"] *)
      cpu_user : float;  (** child user CPU seconds, from [Unix.times] *)
      cpu_sys : float;  (** child system CPU seconds *)
    }  (** a worker process was reaped *)
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
      (** the thm1 game cache ([sweep_thm1 --memo]) answered a cell from
          a cached adversary report: [kind] is ["game"] and [key] the
          resolved cell parameters.  Traces written before the per-step
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
(** Append one record to the installed sink, then hand it to the
    installed hook (no-op without either).  Safe from any domain. *)

val set_hook : (event -> unit) option -> unit
(** Install a secondary in-process event consumer, called after the
    NDJSON sink.  This is how {!Flight} taps the event stream without
    the sites knowing about it; one slot, last set wins. *)

val detach_in_child : unit -> unit
(** Drop the installed sink and hook {e in this process} without
    closing anything.
    Must be the first thing a forked child calls: the child inherits the
    parent's buffered [out_channel], and any emission (or buffer flush
    at exit) would corrupt the parent's NDJSON stream.  Children must
    also terminate via [Unix._exit], which skips [at_exit] flushing of
    inherited buffers. *)

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
