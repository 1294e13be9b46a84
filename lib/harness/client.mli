(** Client side of the {!Server} protocol: content-derived job ids,
    pipelined submission, and seeded-backoff retries over every failure
    the server (or its [--chaos] harness) can inject.

    The retry loop is safe {e because} submission is idempotent: a job's
    id is a digest of its content ({!job_id}), so resubmitting after a
    dropped connection, a truncated frame, or a typed ['X'] rejection
    can never run a job twice — the server answers from its dedup table
    ([cached]/[inflight]) and the bytes of a campaign's results are
    independent of how many times the client had to ask. *)

val job_id : kind:string -> payload:string -> string
(** The content-derived id the server will assign: [Digest] (as hex) of
    [kind], a NUL byte, and [payload].  Computable offline — equal
    content, equal id, which is the whole idempotency story. *)

val sockaddr_of_spec : string -> Unix.sockaddr
(** A socket spec, as both ends of the protocol name it: ["tcp:PORT"]
    is loopback TCP, anything else a Unix-domain socket path.
    @raise Invalid_argument on a [tcp:] spec whose port is not in
    [1, 65535]. *)

val split_tab : string -> string * string
(** [split_tab "a\tb\tc"] is [("a", "b\tc")]; without a tab, [(s, "")].
    Splits the [id "\t" rest] payloads of ['R'] and ['X'] frames. *)

val with_sigpipe_ignored : (unit -> 'a) -> 'a
(** Run [f] with [SIGPIPE] ignored (so a write to a closed peer is an
    [EPIPE] error, not death), restoring the previous disposition. *)

type campaign = {
  results : string list;
      (** one result per submitted spec, {e in spec order} — byte-equal
          to what a local serverless run of the same specs prints *)
  resubmits : int;
      (** submit frames sent beyond the first per unique job *)
  rejections : int;  (** typed ['X'] answers absorbed (backpressure) *)
  reconnects : int;  (** connections re-established mid-campaign *)
}

val run_campaign :
  ?backoff:Backoff.config ->
  ?window:int ->
  ?deadline:float ->
  ?max_attempts:int ->
  ?recv_timeout:float ->
  socket:string ->
  (string * string) list ->
  campaign
(** [run_campaign ~socket specs] submits every [(kind, payload)] spec
    and blocks until all results are in.  Up to [window] (default 16)
    jobs are kept in flight (pipelined on one connection).  A rejection
    backs the job off on the seeded [backoff] schedule (default
    {!Backoff.default} — deterministic delays, so two runs of the same
    campaign against the same server behave the same); a connection
    failure of any shape (EOF, reset, frame decode error, [recv_timeout]
    seconds of silence — default 30) reconnects and resubmits every
    unresolved job.  [deadline] (seconds) is forwarded with each submit
    as the per-attempt job deadline.

    @raise Failure if one job is rejected or one connect attempt fails
    [max_attempts] (default 10_000) times in a row — the bound that
    turns a dead or wedged server into an error instead of a hang. *)

val health :
  ?recv_timeout:float ->
  socket:string ->
  unit ->
  (string, [ `Unreachable of string ]) result
(** One-shot ['P'] ping; [Ok json] is the server's health JSON.
    [Error (`Unreachable reason)] is every way the socket can fail to
    answer — missing, refused, reset, EOF, or [recv_timeout] seconds of
    silence — a state callers branch on (the fleet marks the endpoint
    down; [submit.exe --health] exits 2 naming the socket).
    @raise Failure only on protocol corruption: a reachable server that
    answers with anything but ['H']. *)

val stats :
  ?recv_timeout:float ->
  socket:string ->
  unit ->
  (string, [ `Unreachable of string ]) result
(** One-shot ['T'] request; [Ok json] is the server's stats JSON.
    Errors as {!health}. *)

exception Conn_lost of string
(** One connection attempt or established connection failed — EOF,
    reset, refused, decode error, receive timeout.  The campaign loop
    absorbs these (reconnect + resubmit); {!Endpoint} surfaces them to
    the fleet's failover logic. *)

(** A connected endpoint with its own frame decoder — the unit the
    {!Fleet} router multiplexes with [Unix.select].  All functions
    raise {!Conn_lost} on connection failure; none raise [Unix_error]. *)
module Endpoint : sig
  type t

  val connect : ?recv_timeout:float -> string -> t
  (** Connect to a socket spec (Unix path or [tcp:PORT]).  The receive
      timeout (default 30 s) bounds how long a wedged server can stall
      one {!pump}. *)

  val spec : t -> string
  val fd : t -> Unix.file_descr
  (** For [Unix.select] readiness polling — do not read or close it
      directly. *)

  val send : t -> tag:char -> string -> unit
  (** Send one framed request ({!Wire.encode}). *)

  val pump : t -> Wire.frame list
  (** One [Unix.read] (call only when [fd] selected readable, so it
      does not block) followed by every frame that now decodes.  [[]]
      means a frame is still incomplete — select again. *)

  val close : t -> unit
end
