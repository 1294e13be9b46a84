(** A uniform face over the paper's adversaries, so algorithms and
    attacks can be paired from one CLI or test loop.

    Each game pits one {!Models.Algorithm.t} against one adversary at a
    given instance size and reports a normalized verdict.  Both sides run
    guarded: the algorithm under a {!Harness.Guard} (step/color budgets,
    wall-clock deadline, exception containment), the adversary under
    {!Harness.Guard.capture} — so a misbehaving participant degrades one
    verdict into a typed fault instead of aborting a portfolio or sweep.

    The registry spans the three lower-bound theorems plus two
    upper-bound grid runs (oracle-free for AEL, bipartition oracle for
    the Theorem 4 algorithm).

    Distinct games share no mutable state, and the guard's ambient
    tick state is domain-local, so separate verdicts may be computed
    concurrently on separate domains — this is what
    [Harness.Sweep.run ~jobs] relies on. *)

type outcome =
  | Defeated  (** the adversary produced a genuine violation certificate *)
  | Survived  (** the algorithm withstood the attack *)
  | Algorithm_fault of Harness.Misbehavior.t
      (** the algorithm misbehaved (raised, over budget, past deadline,
          out of palette) — the run proves nothing about the theorem *)
  | Adversary_fault of Harness.Misbehavior.t
      (** the adversary misbehaved (crashed, or its transcript failed
          the honesty audit) — the verdict cannot be trusted *)

type verdict = {
  adversary : string;
  algorithm : string;
  n : int;  (** instance size the game was played at *)
  outcome : outcome;
  defeated : bool;  (** [outcome = Defeated] — kept for callers charting defeat frontiers *)
  guaranteed : bool;  (** whether theory guarantees defeat at these parameters *)
  detail : string;  (** adversary-specific report, pretty-printed *)
}

type t = {
  name : string;
  description : string;
  play :
    ?paranoid:bool ->
    ?memo:bool ->
    ?limits:Harness.Guard.limits ->
    n:int ->
    Models.Algorithm.t ->
    verdict;
      (** [n] is interpreted per adversary (grid side, torus side, or
          gadget count) — see {!val-games}.  [~paranoid:true] replays the
          Theorem 1 transcript through {!Virtual_grid.validate}; an audit
          failure surfaces as {!Adversary_fault} with a
          [Dishonest_transcript] certificate.
          [~memo:true] routes the executors through the
          {!Canon.Memo} step cache: color calls of [pure] algorithms
          whose observable history matches an earlier run on this
          domain replay the cached answer, charging the guard so
          verdicts, meters and reports stay byte-identical to
          memo-off (asserted over the same fault matrix).
          A game of [k] steps costs O(sum of per-step frontier sizes)
          in the executor plus the algorithm's own work — see
          [lib/online_local/README.md] for the per-step cost model and
          [BENCH_game_steps.json] for measured rates.
          [?limits] defaults to {!Harness.Guard.default_limits}. *)
}

val referee :
  ?limits:Harness.Guard.limits ->
  ?memo:Canon.Memo.ctx ->
  adversary:string ->
  n:int ->
  guaranteed:bool ->
  Models.Algorithm.t ->
  (Models.Algorithm.t ->
  [ `Defeated of Models.Run_stats.violation | `Survived ] * string) ->
  verdict
(** The guarded engine behind every game: wrap [algorithm] in a fresh
    guard, run [play] on the guarded twin under {!Harness.Guard.capture},
    and classify.  Precedence: a fault recorded on the guard wins (the
    executor only saw a generic exception; the guard knows it was a
    budget, deadline, or raise); then an adversary-side escape becomes
    {!Adversary_fault} (a {!Models.Run_stats.Dishonest_transcript}
    escape keeps its [Dishonest_transcript] certificate, by exception
    type, not message text); then the violation decides — monochromatic
    edge is a genuine {!Defeated}, palette overflow and algorithm crashes
    are {!Algorithm_fault}, repeated presentation is {!Adversary_fault}.
    Exposed so tests can build rigged games.  [?memo] installs the
    guard's {!Harness.Guard.charge} as the context's charge hook before
    running [play], so memo-served calls meter like live ones. *)

val outcome_label : outcome -> string

val thm1 : t
(** Theorem 1 on an [n x n] virtual grid, with the largest fitting
    b-target. *)

val thm2_torus : t
val thm2_cylinder : t
(** Theorem 2 on an [n x n] wrapped grid; [n] is rounded up to odd (and
    the verdict detail says so when rounding happened). *)

val thm3 : t
(** Theorem 3 on a chain of [n] gadgets with k = 3. *)

val upper_grid : t
(** Upper-bound run: a seeded random order on a simple [max 4 n] square
    grid, no oracle (the AEL algorithm's setting). *)

val upper_grid_oracle : t
(** Same, supplying {!Oracles.grid_bipartition} (the Theorem 4
    algorithm's setting). *)

val games : t list
(** All of the above. *)

val find : string -> t option
(** Look up a game by name. *)

val pp_verdict : Format.formatter -> verdict -> unit
