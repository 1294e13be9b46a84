(** Empirical locality measurement: the harness behind the Theta(log n)
    scaling experiments (E1/E4 in DESIGN.md).

    The {e measured locality} of an algorithm family on a host is the
    smallest [T] at which it produces a proper coloring against a given
    set of adversarial presentation orders.  For the Theorem 4 algorithm
    this should track [3 (k-1) log2 n]; for the Theorem 1 adversary, the
    smallest surviving [T] tracks [log n] from below. *)

type upper_sweep_point = {
  n : int;  (** host size *)
  t_star : int;  (** smallest locality that succeeded on all orders *)
  swaps_at_t_star : int;  (** Algorithm-1 executions at that locality *)
}

val min_locality_for_success :
  host:Grid_graph.Graph.t ->
  palette:int ->
  orders:Grid_graph.Graph.node list list ->
  make:(t:int -> Models.Algorithm.t) ->
  ?oracle:(to_host:(Grid_graph.Graph.node -> Grid_graph.Graph.node) -> Models.Oracle.t) ->
  ?hints:(Grid_graph.Graph.node -> Models.View.hint option) ->
  t_max:int ->
  unit ->
  int option
(** Binary search (success at [t] is monotone in practice, and verified
    at the returned point) for the smallest [t <= t_max] at which
    [make ~t] colors the host properly under {e every} order; [None] if
    even [t_max] fails. *)

val adversarial_orders : host:Grid_graph.Graph.t -> seeds:int list -> Grid_graph.Graph.node list list
(** A spread of stress orders: sequential; a two-ends-inward order
    (maximizes late merges of large groups); a bit-reversal order
    (maximizes the pairwise merge-tree depth, the Theorem 4 worst case);
    and the seeded shuffles. *)

val min_defeating_b : n_side:int -> t:int -> algorithm:(unit -> Models.Algorithm.t) -> k_max:int -> int option
(** Smallest b-value target at which the Theorem 1 adversary defeats a
    fresh instance of the algorithm on an [n_side^2] virtual grid with a
    construction that fits it (the [fits] field of its
    [Thm1_adversary.report]): a defeat wider than the host is not a
    defeat on it.  [None] if there
    is no such defeat for any [k <= k_max]. *)
