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

    Distinct games share no mutable state, so verdicts may be computed
    in any order, or concurrently on separate worker processes — this
    is what [Harness.Sweep.run ~jobs] relies on.  The guard's ambient
    tick state is one value per process: games run one at a time on a
    process's single domain. *)

type t = {
  name : string;
  description : string;
  play :
    ?paranoid:bool ->
    ?limits:Harness.Guard.limits ->
    n:int ->
    Models.Algorithm.t ->
    Verdict.t;
      (** [n] is interpreted per adversary (grid side, torus side, or
          gadget count) — see {!val-games}.  [~paranoid:true] replays the
          transcript through an honesty audit: {!Virtual_grid.validate}
          for Theorem 1, {!Models.Fixed_host.validate} on every fixed-host
          run of the other games; an audit failure surfaces as
          [Verdict.Adversary_fault] with a [Dishonest_transcript]
          certificate.
          A game of [k] steps costs O(sum of per-step frontier sizes)
          in the executor plus the algorithm's own work — see
          [lib/online_local/README.md] for the per-step cost model and
          [BENCH_game_steps.json] for measured rates.
          [?limits] defaults to {!Harness.Guard.default_limits}. *)
}

val referee :
  ?limits:Harness.Guard.limits ->
  adversary:string ->
  n:int ->
  Models.Algorithm.t ->
  (Models.Algorithm.t -> Models.Run_stats.result * string * bool) ->
  Verdict.t
(** The guarded engine behind every game: wrap [algorithm] in a fresh
    guard, run [play] on the guarded twin under {!Harness.Guard.capture},
    and classify the guard's fault and [play]'s result with
    {!Verdict.classify} (which states the precedence).  [play] returns
    the run's result, its detail and whether theory guarantees the
    defeat on this instance; the verdict and its [game_verdict] trace
    event both carry that flag, which is [false] when [play] raised.
    After a guard fault the detail leads with the guard's certificate,
    unless the run's [Algorithm_failure] record already states it, and
    is the certificate alone when [play] raised.  Exposed so tests can
    build rigged games. *)

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
