(** The engine behind [bin/fuzz.exe]: run {!Fuzz_targets} under a
    {!Runner.config}, optionally fanned over a {!Harness.Pool}.

    Determinism contract: for a fixed [(seed, cases)] the report of
    every target — counterexample, shrink count, replay token included —
    is byte-identical whatever [jobs] is.  Three ingredients:

    {ul
    {- every case [i] runs on the independent stream
       [Rng.of_seed_case ~seed ~case:i], so no case depends on which
       domain ran it or what ran before;}
    {- all [cases] cases always run (no early stop on failure), and
       only the {e lowest-index} failure is reported and shrunk;}
    {- shrinking happens on the calling domain, from the failing case's
       recorded tree.}}

    Targets marked [serial] (process-global state) always run their
    cases sequentially on the calling domain, whatever [jobs] says. *)

type status =
  | Passed of { cases : int }
  | Failed of Runner.counterexample
  | Skipped of string  (** the target's [available] said no *)

type report = {
  target : Fuzz_targets.t;
  status : status;
  cases_run : int;  (** 0 when skipped *)
}

val run_target : ?jobs:int -> config:Runner.config -> Fuzz_targets.t -> report
(** Run one target's full case budget (capped at the target's
    [max_cases]).  Emits [Cell_start]/[Cell_finish] trace events (key
    [fuzz:<name>]) when a trace sink is on. *)

val replay : ?max_shrinks:int -> string -> (report, string) result
(** [replay token] re-runs exactly the case a replay token
    [target:seed:case:size] names — one generation, one property
    evaluation, shrinking on failure.  Bypasses the target's
    [available] gate (the token proves intent).  [Error] on a malformed
    token or an unknown target name. *)
