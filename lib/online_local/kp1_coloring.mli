(** The (k+1)-coloring algorithm of Theorem 4 (Section 5.1.2), and its
    k = 2 specialisation, the Akbari et al. (ICALP 2023) 3-coloring of
    bipartite graphs (Section 5.1.1).

    The algorithm k-colors the revealed fragments using the partition
    oracle and the group's {e type} (the permutation assigning colors to
    the k parts); when fragments with incompatible types merge, the
    smaller one's type is rewritten to match the larger one's by at most
    [k - 1] color swaps, each swap building three one-node-thick barrier
    layers with the help of the spare color [k] (Algorithm 1 of the
    paper).  With locality [3 (k-1) ceil(log2 n)] every node sees at most
    [log2 n] type changes, so the barriers always stay inside the group —
    the [O(log n)] upper bound.  Run with a deliberately smaller locality,
    the barriers escape the revealed region and the adversaries of
    Section 3 catch the algorithm: both directions of the tight bound are
    exercised by the same code.

    {2 The barrier's frontier}

    Algorithm 1 commits one layer, the {e ring}, around [X'], the
    group's committed nodes.  Each group keeps the {e frontier} of
    [X']: the committed nodes that may still have an uncommitted
    neighbor.  A ring is read off the frontier alone, since every other
    node of [X'] has only committed neighbors, and the ring becomes the
    new frontier, since the ring now covers every uncommitted neighbor
    of the old one.  So a barrier costs O(frontier), not O(|X'|).

    The frontier stays complete because views grow as induced
    subgraphs: a step shows its new nodes together with their edges to
    the revealed region, and never a new edge between two old nodes.
    [Fixed_host] and the reduction's mirror show the subgraph induced
    by what they revealed, and [Virtual_grid.merge] refuses any
    placement that makes two revealed regions touch.  Every edge a step
    adds therefore has a new endpoint, and a committed node gains an
    uncommitted neighbor only next to a new node; the step's first
    pass puts every such node back on its group's frontier.  This needs
    the instance to see every step of its game, as it does under every
    executor and wrapper here (a step answered for it ends the game).

    The ring is a set: a ring node's color depends on its label alone,
    so the order in which it is built ([View.iter_neighbors], and the
    frontier's own order) is not observable.  The passes whose order
    reaches the output read [View.neighbors] in its documented order,
    once per new node per step: the old-roots table, whose fold order
    breaks size ties between merging groups; the union order, which
    decides root identity; and the bipartite labeling. *)

type stats = {
  mutable merges : int;  (** group-merge events (Case 3 steps) *)
  mutable type_changes : int;  (** groups whose type was rewritten *)
  mutable swaps : int;  (** color transpositions executed (Algorithm 1 runs) *)
  mutable wave_commits : int;  (** nodes colored by barrier layers *)
  mutable escapes : int;
      (** barrier nodes that fell outside the group being rewritten —
          zero whenever the locality was sufficient; a nonzero count is
          the smoking gun of an under-provisioned [T] *)
  mutable largest_group : int;
}

val fresh_stats : unit -> stats

val default_locality : k:int -> n:int -> int
(** [3 (k-1) ceil(log2 n)], at least 1 — the locality Theorem 4
    prescribes (the oracle radius is accounted separately by executors). *)

val make :
  ?locality:(n:int -> int) ->
  ?flip:[ `Smaller | `Larger ] ->
  ?stats:stats ->
  k:int ->
  unit ->
  Models.Algorithm.t
(** The algorithm for (k+1)-coloring graphs in [L_{k,l}].  Needs an
    oracle with [parts = k] at instantiation (executors supply it);
    [~flip:`Larger] is the ablation that rewrites the {e larger} group on
    merges, destroying the logarithmic flip bound.  @raise
    Invalid_argument if [k < 2]. *)

val ael_bipartite :
  ?locality:(n:int -> int) -> ?stats:stats -> unit -> Models.Algorithm.t
(** The k = 2 instance wired to the radius-0 bipartition oracle, so it
    runs against any executor without external oracle plumbing — this is
    the algorithm the Theorem 1 adversary defeats at small localities. *)
