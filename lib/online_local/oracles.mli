(** Partition oracles for the concrete L_{k,l} families of the paper.

    Each constructor packages the topology's canonical unique coloring as
    a {!Models.Oracle.t} with the radius claimed in the paper:

    {ul
    {- bipartite grids: radius 0 (the bipartition is free);}
    {- triangular grids: radius 1 (triangle chains, Figure 1);}
    {- k-trees: radius 1 (clique-tree chains);}
    {- the layered graphs [G_k]: radius k (Lemma 5.6).}}

    All of them are built with {!Models.Oracle.of_canonical_coloring}, so
    the part indices are canonicalized per query and never leak a global
    alignment.  The [to_host] argument is supplied by the executor
    (see {!Models.Fixed_host.start}). *)

type maker :=
  to_host:(Grid_graph.Graph.node -> Grid_graph.Graph.node) -> Models.Oracle.t

val grid_bipartition : Topology.Grid2d.t -> maker
(** Radius-0, 2-part oracle from the grid's parity coloring.  Requires a
    bipartite grid (simple, or wrapped with even wrapped dimensions).
    @raise Invalid_argument otherwise. *)

val tri_grid : Topology.Tri_grid.t -> maker
(** Radius-1, 3-part oracle from the triangular grid's tripartition. *)

val clique_chain : parts:int -> radius:int -> Models.Oracle.t
(** The {e structural} oracle: infer the unique [parts]-partition from
    the revealed view alone, with no host access, by chaining
    [parts]-cliques — two cliques sharing [parts - 1] nodes force their
    odd nodes into the same part (the mechanism behind the paper's
    triangular-grid and k-tree examples in Section 1, and behind
    Claim 5.5 for the layered graphs).  [radius] is the advertised
    locality cost (1 for triangular grids and k-trees, k for [G_k]);
    the implementation walks as far through the {e revealed} region as
    the chain requires, which is information the algorithm legitimately
    holds.
    @raise Invalid_argument at query time when some queried node lies on
    no revealed [parts]-clique or the chain does not reach it — i.e.
    when the host does not support this mechanism. *)

val triangle_chain : Models.Oracle.t
(** [clique_chain ~parts:3 ~radius:1] — the paper's Figure-1 procedure
    for triangular grids. *)

val ktree : Topology.Ktree.t -> maker
(** Radius-1, (k+1)-part oracle from the k-tree's construction coloring. *)

val layered : Topology.Layered.t -> maker
(** Radius-k, k-part oracle for [G_k] (Lemma 5.6). *)
