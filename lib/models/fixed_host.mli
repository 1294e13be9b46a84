(** The Online-LOCAL executor over a fixed, fully known host graph.

    This executor covers every experiment in which the adversary's power
    is just the choice of the presentation order (and, optionally, of a
    host from a family of isomorphic variants chosen {e before} the run):
    all upper-bound runs of Theorem 4, the gadget attack of Theorem 3,
    and the two-row attack of Theorem 2.  The deferred-placement
    adversary of Theorem 1 needs the richer executor in the core library.

    Per presented node [v] the executor reveals the host ball
    [B(v, T + oracle_radius)] and asks the algorithm instance for the
    color of [v].  The revealed graph is the host's subgraph induced on
    the union of the balls, so the view's [node_count], [iter_neighbors]
    and [mem_edge] read the host's rows through the handle map.  Only
    [neighbors] needs a region graph ({!Grid_graph.Dyn_graph}), whose
    order it shows; the executor wires that graph on the first
    [neighbors] call that needs it, each pending step as it would have
    been wired on reveal (the step's fresh handles in order, each over
    its host row, to every handle revealed by the end of that step), so
    the order is the one a region wired at every reveal has.

    {2 Cost model}

    Revealing is incremental ({!Grid_graph.Bfs.Frontier}): each step
    costs O(frontier) — the fresh nodes plus the already-revealed shell
    the bounded BFS touches before slack pruning stops it — not
    O(revealed region) and not O(host).  Handle lookup is a flat array
    read, presented-twice detection a dense byte set: both O(1) and
    allocation-free.  Per step the executor allocates only the fresh
    handle list, one view record (its accessors are built once per
    run) and, while a trace sink is on, its [Step] event; it records
    the step's target and first fresh handle in two flat arrays, grown
    by doubling, for {!validate}.

    [iter_neighbors] reads the host row in O(degree) with one closure
    per call, [mem_edge] in O(log degree).  The first [neighbors] call
    of a step wires the region up to that step, at the cost of the
    wiring it defers (every induced edge of those steps inserted into
    [Dyn_graph]); a run whose algorithm never calls [neighbors] (greedy,
    constant and hint-only algorithms) wires nothing.  See
    [lib/online_local/README.md]. *)

type t
(** A running execution (host, algorithm instance, revealed region). *)

val start :
  ?hints:(Grid_graph.Graph.node -> View.hint option) ->
  ?oracle:(to_host:(Grid_graph.Graph.node -> Grid_graph.Graph.node) -> Oracle.t) ->
  host:Grid_graph.Graph.t ->
  palette:int ->
  algorithm:Algorithm.t ->
  unit ->
  t
(** Create an execution.  [hints] attaches per-host-node hints
    ({e fixed-frame} — this executor commits the embedding up front, so
    all hints share frame 0 and honestly reveal host coordinates;
    adversaries that must hide coordinates use the deferred executor
    instead).  [oracle] builds the partition oracle from the executor's
    view-to-host mapping; its radius is added to the revealed ball
    radius. *)

val present : t -> Grid_graph.Graph.node -> int
(** Present one host node; returns the color the algorithm answered.
    @raise Run_stats.Dishonest_transcript if the node is not a host node
    or was already presented (an adversary rule violation, typed so the
    guarded engine certifies it as such). *)

val coloring : t -> Colorings.Coloring.t
(** Colors output so far, indexed by host node (shared, do not mutate). *)

val revealed_host_nodes : t -> Grid_graph.Graph.node list
(** Host nodes currently revealed, in handle order. *)

val to_host : t -> Grid_graph.Graph.node -> Grid_graph.Graph.node
(** Map a view handle to its host node. *)

val validate : ?radius:int -> t -> unit
(** Replay honesty audit of the steps so far, O(presented x ball +
    n + m) with flat arrays (an audit, off the hot path).  For each
    presented node, in order, it recomputes the ball of radius [radius]
    (default: the radius the executor reveals, locality plus oracle
    radius) by a bounded BFS over the host with a stamp array, sharing
    no code with {!Grid_graph.Bfs.Frontier} or {!Grid_graph.Dyn_graph}.
    It checks that the handle map is a bijection onto the revealed host
    nodes, that the region graph (wired first, if it is behind) is the
    host's subgraph induced on them, and that every node was revealed
    exactly at the first presented ball that contains it, and never
    outside every ball.  A
    [radius] other than the executor's makes an honest transcript fail
    (that is how the audit is tested).
    @raise Run_stats.Dishonest_transcript with a diagnostic on the first
    mismatch, after emitting an [Audit] trace event with [ok = false]. *)

val run :
  ?validate:bool ->
  ?hints:(Grid_graph.Graph.node -> View.hint option) ->
  ?oracle:(to_host:(Grid_graph.Graph.node -> Grid_graph.Graph.node) -> Oracle.t) ->
  host:Grid_graph.Graph.t ->
  palette:int ->
  algorithm:Algorithm.t ->
  order:Grid_graph.Graph.node list ->
  unit ->
  Run_stats.outcome
(** Whole-run convenience: present every node of [order] (stopping early
    on a violation), then audit the result.  When [order] covers all host
    nodes and no violation occurred, [Run_stats.succeeded] on the outcome
    decides whether the algorithm won.  [~validate:true] (default
    [false]) runs {!validate} on the transcript before the audit.  The
    audit's [Audit] trace event has [ok = true] unless the order
    repeated a node: a run the algorithm lost is an honest transcript,
    with its violation in [detail].
    @raise Run_stats.Dishonest_transcript on an [order] entry that is not
    a host node (see {!present}), or when {!validate} fails. *)

val stopped : Run_stats.outcome -> bool
(** Whether {!run} stopped before the end of its order: on any violation
    but a monochromatic edge, which only the final audit finds. *)

val orders : all:Grid_graph.Graph.t -> [ `Sequential | `Random of int ] -> Grid_graph.Graph.node list
(** Common presentation orders: [`Sequential] is [0, 1, ..., n-1];
    [`Random seed] is a seeded uniform shuffle. *)
