(** Streaming campaign statistics: mergeable per-series accumulators —
    count, mean, variance, min/max, and an HDR-style quantile sketch —
    {e sharded per domain} and merged at {!drain}.  Each domain records
    into a private [Domain.DLS] shard, so the hot path takes no lock;
    shards register in a global list, so {!drain} also merges the
    shards of domains that have since terminated.

    The OnlineStats idiom: every series is O(1) memory however many
    observations it absorbs, and two partial accumulators merge with
    Chan's parallel identities (counts and sums add, the cross term of
    the variance falls out of the exact sums).  A series answers both
    "how many" (its count and sum) and "how were they distributed" —
    still at one atomic load per call when disabled.  Run-dependent
    counts (cache hits, retries, kills, flushes) are not kept here:
    they are {!Trace} events, which [trace_report] tallies.

    {2 Determinism contract}

    Merging floating-point means and M2s is commutative but {e not}
    associative, so a naive Chan merge would leak the work partition
    into the low bits of the variance.  This module therefore keeps the
    accumulator state in {e exact integer arithmetic} — count, sum, a
    123-bit sum of squares, min/max, and integer sketch buckets — and
    evaluates Chan's identities over those exact sums only at render
    time.  Merge is then exactly commutative {e and} associative, and
    {!drain} sorts series names, so the drained snapshot (and its
    {!snapshot_to_json} bytes) is byte-identical however the work was
    distributed: same totals at [--jobs 1] and [--jobs 4], in-process or
    on worker processes (CI diffs exactly this).  Keep wall-clock and
    jobs-dependent values out of the registry; they belong in the
    {!Trace}, which makes no such promise.

    {2 Value range}

    Observations are native ints.  Values are clamped to
    [+-(2^30 - 1)] before squaring so the sum of squares stays exact in
    123 bits; sums of up to ~2^31 observations of clamped magnitude
    cannot overflow.  Campaign quantities (work ticks, color calls,
    steps, view sizes) sit far inside this range. *)

type series = {
  n : int;  (** observation count *)
  sum : int;
  sq_hi : int;  (** sum of squares, high limb (base 2{^61}) *)
  sq_lo : int;  (** sum of squares, low limb, [0 <= sq_lo < 2^61] *)
  min_v : int;  (** meaningless when [n = 0] *)
  max_v : int;  (** meaningless when [n = 0] *)
  sketch : (int * int) list;
      (** sparse HDR buckets [(index, count)], index ascending; see
          {!sketch_index} *)
}

type snapshot = (string * series) list
(** Sorted by series name. *)

val sketch_index : int -> int
(** Quantile-sketch bucketing: values [<= 0] and [0..7] map to buckets
    [0..7] exactly; larger values keep their top three mantissa bits
    (HDR style, \@12.5% relative resolution).  480 buckets cover every
    nonnegative OCaml int. *)

val sketch_value : int -> int
(** Lower bound of a bucket: [sketch_value (sketch_index v) <= v]. *)

val on : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Discard every shard and every absorbed foreign snapshot (live
    domains holding a stale shard re-register lazily on next use). *)

val observe : string -> int -> unit
(** Record one observation into a series.  Disabled (the default), one
    atomic load and a branch. *)

val scoped : (unit -> 'a) -> 'a * string
(** [scoped f] runs [f] with this domain's recording redirected into a
    fresh scope, then merges the scope into the domain shard and
    returns [f]'s result together with the scope's encoded delta
    (see {!to_string}; [""] when stats are off or nothing was
    recorded).  The delta is exactly what [f] contributed — the unit
    {!Harness.Sweep} checkpoints per cell so a resumed run restores
    partial stats without double counting. *)

val absorb : snapshot -> unit
(** Merge a foreign snapshot (a child process's drain, a checkpoint
    delta) into the registry, to be included by the next {!drain}.
    No-op on the empty snapshot. *)

val absorb_string : string -> (unit, string) result
(** {!absorb} an encoded snapshot; [Error] on a malformed encoding. *)

val merge : snapshot -> snapshot -> snapshot
(** Exact commutative/associative merge of two snapshots. *)

val drain : unit -> snapshot
(** Merge all shards and absorbed snapshots, names sorted.  Does not
    reset.  Call it from the main domain after the parallel section. *)

val to_string : snapshot -> string
(** Canonical compact encoding (deterministic bytes) for transport over
    {!Harness.Wire} frames and sweep/server journals.  Newline- and
    tab-free, so it embeds in a journal record value. *)

val of_string : string -> (snapshot, string) result

val mean : series -> float

val variance : series -> float
(** Unbiased sample variance; [0.] when [n < 2]. *)

val stddev : series -> float

val quantile : series -> num:int -> den:int -> int
(** Sketch estimate of the [num/den] quantile (lower bucket bound —
    within 12.5% below the true order statistic for positive values).
    Integer arithmetic throughout: deterministic. *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable dump, stable formatting (CI diffs this output across
    [--jobs] counts). *)

val snapshot_to_json : snapshot -> Json.t
(** Derived view — count/mean/variance/stddev/min/max/p50/p90/p99 and
    the sparse sketch — plus the exact raw sums, so the bytes are both
    human-useful and losslessly re-absorbable. *)
