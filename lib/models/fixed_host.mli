(** The Online-LOCAL executor over a fixed, fully known host graph.

    This executor covers every experiment in which the adversary's power
    is just the choice of the presentation order (and, optionally, of a
    host from a family of isomorphic variants chosen {e before} the run):
    all upper-bound runs of Theorem 4, the gadget attack of Theorem 3,
    and the two-row attack of Theorem 2.  The deferred-placement
    adversary of Theorem 1 needs the richer executor in the core library.

    Per presented node [v] the executor reveals the host ball
    [B(v, T + oracle_radius)], extends the revealed region, and asks the
    algorithm instance for the color of [v].

    {2 Cost model}

    Revealing is incremental ({!Grid_graph.Bfs.Frontier}): each step
    costs O(frontier) — the fresh nodes plus the already-revealed shell
    the bounded BFS touches before slack pruning stops it — not
    O(revealed region) and not O(host).  Handle lookup is a flat array
    read, presented-twice detection a dense byte set: both O(1) and
    allocation-free.  Per step the executor allocates only the fresh
    handle list, the view closure record, and (while a trace sink or
    the metrics registry is on) the trace/metrics events.  See
    [lib/online_local/README.md]. *)

type t
(** A running execution (host, algorithm instance, revealed region). *)

val start :
  ?memo:Canon.Memo.ctx ->
  ?ids:(Grid_graph.Graph.node -> int) ->
  ?hints:(Grid_graph.Graph.node -> View.hint option) ->
  ?oracle:(to_host:(Grid_graph.Graph.node -> Grid_graph.Graph.node) -> Oracle.t) ->
  host:Grid_graph.Graph.t ->
  palette:int ->
  algorithm:Algorithm.t ->
  unit ->
  t
(** Create an execution.
    [memo] enables the {!Canon.Memo} step cache: the host adjacency,
    ids, hints and every answer are folded into the context's chain
    digest, and calls of [pure] algorithms whose chain key was answered
    in an earlier run replay the cached color (charging the guard via
    the context), leaving output byte-identical to memo-off
    output.  [ids] assigns the unique identifier of each
    host node (default: host node + 1); [hints] attaches per-host-node
    hints ({e fixed-frame} — this executor commits the embedding up
    front, so all hints share frame 0 and honestly reveal host
    coordinates; adversaries that must hide coordinates use the deferred
    executor instead).  [oracle] builds the partition oracle from the
    executor's view-to-host mapping; its radius is added to the revealed
    ball radius. *)

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

val run :
  ?memo:Canon.Memo.ctx ->
  ?ids:(Grid_graph.Graph.node -> int) ->
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
    decides whether the algorithm won.
    @raise Run_stats.Dishonest_transcript on an [order] entry that is not
    a host node (see {!present}). *)

val orders : all:Grid_graph.Graph.t -> [ `Sequential | `Random of int ] -> Grid_graph.Graph.node list
(** Common presentation orders: [`Sequential] is [0, 1, ..., n-1];
    [`Random seed] is a seeded uniform shuffle. *)
