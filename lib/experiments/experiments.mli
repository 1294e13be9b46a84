(** The experiment drivers behind EXPERIMENTS.md: one per theorem.

    The paper is a theory paper with no measurement tables, so each
    "experiment" regenerates the {e shape} of one theorem: who wins
    (adversary or algorithm), at which locality threshold, and how the
    threshold scales with [n].  Every driver prints a self-contained
    table; [~quick:true] shrinks the parameter ranges to bench-friendly
    sizes (the defaults match EXPERIMENTS.md). *)

module Fit : module type of Fit
(** Least-squares fits for the sweep tables (re-exported). *)

val e1_grid_lower_bound : ?quick:bool -> Format.formatter -> unit
(** Theorem 1.  (a) The portfolio falls to the Lemma 3.6 adversary;
    (b) the defeat frontier k*(T) for the paper's own algorithm grows
    with T; (c) the guaranteed-defeat locality threshold grows
    logarithmically in n. *)

val e2_torus_lower_bound : ?quick:bool -> Format.formatter -> unit
(** Theorem 2.  The two-row attack on cylindrical and toroidal grids:
    guaranteed-defeat threshold T*(side) = (side-4)/4 — linear in
    sqrt n — checked by playing the attack across sides and localities. *)

val e3_gadget_lower_bound : ?quick:bool -> Format.formatter -> unit
(** Theorem 3.  The gadget-chain attack across chain lengths and k:
    the defeat precondition T < n'/2 - 1 is linear in n. *)

val e4_upper_bound_scaling : ?quick:bool -> Format.formatter -> unit
(** Theorem 4.  Minimal locality at which the (k+1)-coloring algorithm
    beats a set of adversarial orders, as n grows, on grids (k=2),
    triangular grids (k=3) and k-trees — compared against the prescribed
    3 (k-1) log2 n. *)

val e5_reduction : ?quick:bool -> Format.formatter -> unit
(** Theorem 5.  The Lemma 5.7 reduction at work on G_2..G_4: correctness
    and simulation overhead (presentations made to the inner algorithm
    per outer presentation). *)

val e6_lemma_checks : ?quick:bool -> Format.formatter -> unit
(** Section 3.1/4.1 groundwork: exhaustive counts for Lemmas 3.3-3.5,
    Claim 4.5 and Equation (1) on enumerable instances. *)

val fault_matrix : unit -> (string * string * string) list
(** The E7 matrix data: [(game, fault, outcome label)] for every game in
    the registry crossed with every {!Harness.Faults.algorithm_faults}
    class (plus a no-fault baseline), each played under the E7 budgets.
    Deterministic; the fault-matrix test pins these rows exactly. *)

val e7_fault_matrix : ?quick:bool -> Format.formatter -> unit
(** Engine soundness.  Prints {!fault_matrix} as a table, then the
    chaos-oracle case (corrupted bipartition part ids fed to the
    Theorem 4 algorithm).  No fault class aborts the sweep: every cell
    degrades to a typed verdict. *)

val run_all :
  ?quick:bool ->
  ?jobs:int ->
  ?supervisor:Harness.Supervisor.config ->
  Format.formatter ->
  unit
(** All of the above, in order — what [repro.exe] runs.  Each driver
    renders into a private buffer on a supervised worker process — at
    most [jobs] at a time (default 1), tuned by [?supervisor]
    ({!Harness.Supervisor}) — and the buffers are printed in driver
    order, so the output is the same at every [jobs].  A driver whose
    worker dies abnormally is retried, then — unlike a sweep cell —
    aborts the repro with [Failure] (partial experiment tables are worse
    than no tables).  One caveat: E7's 10-second wall-clock deadline is
    measured per game, so extreme oversubscription could in principle
    push a game past it; the E7 games finish in milliseconds, leaving
    orders of magnitude of slack. *)
