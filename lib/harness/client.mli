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
    as the per-attempt job deadline, rounded to whole milliseconds.

    @raise Invalid_argument before connecting on a kind that is empty or
    holds a TAB or LF byte, or a [deadline] that rounds to 0 ms — the
    server would refuse every submit of it.
    @raise Failure if one job is rejected or one connect attempt fails
    [max_attempts] (default 10_000) times in a row — the bound that
    turns a dead or wedged server into an error instead of a hang — or
    on the server's ['E'] answer: it refused a request it parsed, and
    the same bytes resubmitted can only be refused again. *)

val health :
  ?recv_timeout:float ->
  socket:string ->
  unit ->
  (string, [ `Unreachable of string ]) result
(** One-shot ['P'] ping; [Ok json] is the server's health JSON.
    [Error (`Unreachable reason)] is every way the socket can fail to
    answer — missing, refused, reset, EOF, or [recv_timeout] seconds of
    silence — a state callers branch on ([submit.exe --health] exits 2
    naming the socket, which is how scripts wait for a restarted server).
    @raise Failure only on protocol corruption: a reachable server that
    answers with anything but ['H']. *)
