(** The engine behind [bin/fuzz.exe]: run {!Fuzz_targets} under a
    {!Runner.config}.  [fuzz.exe] runs each target as one task on a
    supervised worker process; the cases of a target run one after
    another.

    Determinism contract: for a fixed [(seed, cases)] the report of
    every target — counterexample, shrink count, replay token included —
    is byte-identical whichever process runs it.  Three ingredients:

    {ul
    {- every case [i] runs on the independent stream
       [Rng.of_seed_case ~seed ~case:i], so no case depends on what ran
       before;}
    {- all [cases] cases always run (no early stop on failure), and
       only the {e lowest-index} failure is reported and shrunk;}
    {- shrinking starts from the failing case's recorded tree.}} *)

type status =
  | Passed of { cases : int }
  | Failed of Runner.counterexample
  | Skipped of string  (** the target's [available] said no *)

type report = { target : Fuzz_targets.t; status : status }

val run_target : config:Runner.config -> Fuzz_targets.t -> report
(** Run one target's full case budget (capped at the target's
    [max_cases]).  Emits [Cell_start]/[Cell_finish] trace events (key
    [fuzz:<name>]) when a trace sink is on. *)

val replay : ?max_shrinks:int -> string -> (report, string) result
(** [replay token] re-runs exactly the case a replay token
    [target:seed:case:size] names — one generation, one property
    evaluation, shrinking on failure.  Bypasses the target's
    [available] gate (the token proves intent).  [Error] on a malformed
    token or an unknown target name. *)

val status_line : report -> string
(** The one-line verdict [fuzz.exe] prints and a served fuzz job answers
    first: ["NAME: PASS (N cases)"], ["NAME: SKIP (reason)"] or
    ["NAME: FAIL (case I, size S, K shrinks)"]. *)
