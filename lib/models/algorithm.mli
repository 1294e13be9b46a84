(** Online-LOCAL algorithms.

    An algorithm is instantiated once per run — the instance is a closure
    whose captured state is the model's unbounded {e global memory}.  At
    every step the executor hands it the current {!View.t} and the
    instance must return a color in [{0 .. palette-1}] for
    [view.target]. *)

type instance = View.t -> int

type t = {
  name : string;
  locality : n:int -> int;
      (** the locality [T(n)]; executors reveal [B(v, T)] per presented
          node (plus the oracle radius when an oracle is in play) *)
  instantiate : n:int -> palette:int -> oracle:Oracle.t option -> instance;
      (** fresh mutable state for one run.  Algorithms that need an
          oracle should fail fast ([invalid_arg]) when given [None]. *)
}

val stateless : ?pure:bool -> name:string -> locality:(n:int -> int) -> (View.t -> int) -> t
(** An algorithm with no global memory (every SLOCAL algorithm is one).
    [pure] is accepted and ignored; [bench/suite/replay.ml] still
    passes it. *)

val greedy_first_fit : t
(** The locality-1 greedy: the smallest palette color not used by an
    already-output neighbor, or color 0 when stuck (which then shows up
    as a monochromatic edge — greedy cannot refuse to answer).  This is
    the classic SLOCAL (degree+1)-coloring specialised to a fixed
    palette, and the first victim of every adversary in this library.
    Its answer does not depend on neighbor order, so it collects the
    neighbors' colors over [View.iter_neighbors]. *)

val hint_parity : t
(** Colors by coordinate parity taken from grid hints, using colors
    [{0, 1}]: [(row + col) mod 2] within the component frame.  Proper on
    a simple grid as long as the adversary never flips a frame's parity
    under it — which deferred-placement adversaries do at will.  A
    deliberately naive baseline. *)
