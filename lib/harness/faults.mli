(** Deterministic fault-injection combinators over algorithms and
    oracles.

    Each wrapper turns a well-behaved participant into a specific kind
    of misbehaving one, so the E7 fault matrix can probe that every
    (fault class x game) pair yields exactly the expected typed outcome.
    All wrappers are deterministic (counters, not clocks) and
    per-instance (fresh state per [instantiate]), so probe-and-replay
    adversaries still see a deterministic algorithm.

    That same per-instance discipline is what makes the combinators safe
    under a parallel {!Sweep}: no wrapper touches global mutable state,
    so a warm worker's earlier cells cannot perturb its later ones.  In particular {!chaos_oracle} derives every
    corruption purely from [(handle, seed)] — a stateless seeded
    function, not a shared RNG stream — so fault-matrix results are
    identical at any [--jobs] count. *)

val wrong_color : every:int -> Models.Algorithm.t -> Models.Algorithm.t
(** Every [every]-th color call answers [(c + 1) mod palette] instead of
    the underlying [c]: wrong but in-palette, so only the game itself
    (a monochromatic edge) can catch it. *)

val out_of_palette :
  ?color:int -> at_step:int -> Models.Algorithm.t -> Models.Algorithm.t
(** Color call number [at_step] answers [color] (default: [palette],
    the smallest out-of-range value; try [max_int] or a negative). *)

val raise_at :
  ?message:string -> step:int -> Models.Algorithm.t -> Models.Algorithm.t
(** Color call number [step] raises [Failure message]. *)

val spin : steps:int -> Models.Algorithm.t -> Models.Algorithm.t
(** From color call number [steps] on, loop forever — polling
    {!Guard.tick} each iteration, so a guard's work budget or deadline
    stops it within bounded steps.  Unguarded, it really does not
    terminate: only run it under {!Guard.algorithm}. *)

val amnesia : Models.Algorithm.t -> Models.Algorithm.t
(** Re-instantiates the underlying algorithm on every color call,
    dropping the model's unbounded global memory between steps. *)

val chaos_oracle : seed:int -> Models.Oracle.t -> Models.Oracle.t
(** Corrupt an oracle: queried nodes whose handle [h] satisfies
    [(h + seed) mod 2 = 0] report the next part id instead of their own.
    Deterministic in [seed]; [parts] and [radius] are preserved. *)

val algorithm_faults :
  (string * (Models.Algorithm.t -> Models.Algorithm.t)) list
(** The canonical fault classes of the E7 matrix, labelled:
    [wrong-color] ([~every:2] — every call would be a mere palette
    rotation), [out-of-palette] ([~at_step:1]), [raise] ([~step:1]),
    [spin] ([~steps:1]), [amnesia]. *)
