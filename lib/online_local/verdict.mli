(** What a played run counts as.  In the paper's lower bounds the
    adversary wins only with a monochromatic edge, and an algorithm that
    raised proves nothing, so every route classifies its runs here:
    {!Game.referee}, the E1–E3 tables, {!Measure.min_defeating_b} and
    [exhaust]. *)

type outcome =
  | Defeated  (** the adversary produced a monochromatic edge *)
  | Survived  (** the algorithm withstood the attack *)
  | Algorithm_fault of Harness.Misbehavior.t
      (** the algorithm misbehaved (raised, over budget, past deadline,
          out of palette) — the run proves nothing about the theorem *)
  | Adversary_fault of Harness.Misbehavior.t
      (** the adversary misbehaved (crashed, or its transcript failed
          the honesty audit) — the verdict cannot be trusted *)

val classify :
  Harness.Misbehavior.t option ->
  (Models.Run_stats.result, Harness.Misbehavior.t) result ->
  outcome
(** [classify fault run] from the fault recorded on the algorithm's
    guard ([None] for an unguarded run) and the run's result, or the
    certificate of an exception that escaped the adversary.  Precedence:
    a guard fault [Some m] is [Algorithm_fault m] whatever the run
    returned (the guard knows it was a budget, a deadline or a raise);
    then an escape [Error m] is [Adversary_fault m]; then the result: a
    monochromatic edge is [Defeated], [`Survived] is [Survived], a
    palette overflow or an algorithm failure is an algorithm fault, and
    a repeated presentation a [Dishonest_transcript] adversary fault. *)

val label : outcome -> string
(** ["DEFEATED"], ["survived"], ["ALGORITHM-FAULT (<cause>)"] or
    ["ADVERSARY-FAULT (<cause>)"], the cause being
    {!Harness.Misbehavior.label}. *)

type t = {
  adversary : string;
  algorithm : string;
  n : int;  (** instance size the game was played at *)
  outcome : outcome;
  guaranteed : bool;
      (** whether theory guarantees defeat at these parameters (thm2
          and thm3: the run's preconditions held).  Recorded whatever the
          outcome, here and in the [game_verdict] trace event; {!pp}
          prints it only beside [Defeated] or [Survived]. *)
  detail : string;  (** adversary-specific report, pretty-printed *)
}
(** A guarded game's verdict. *)

val pp : Format.formatter -> t -> unit
(** [<adversary> vs <algorithm> (n=<n>): <label>], with [" [guaranteed]"]
    when theory guarantees the defeat and the outcome is [Defeated] or
    [Survived] (a guaranteed survival contradicts the theorem, so it
    stays visible; a fault proves nothing about it), then the detail on
    its own line. *)
