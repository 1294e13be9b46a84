(** Immutable, simple, undirected graphs over nodes [0 .. n-1].

    This is the substrate every topology and model in the library is built
    on.  Graphs are stored as sorted adjacency arrays, so neighbor iteration
    is cache-friendly and edge membership is a binary search.  All
    constructors deduplicate edges and reject self-loops, keeping every
    value of type {!t} a simple graph as required by the paper's
    preliminaries (Section 2). *)

type node = int
(** Nodes are dense integer handles in [0 .. n-1]. *)

type t
(** An immutable simple undirected graph. *)

val build : n:int -> ((node -> node -> unit) -> unit) -> t
(** [build ~n gen] is the graph on [n] nodes whose edges are the arcs
    [gen] passes to the [add] function it is given: [gen add] calls
    [add u v] once per arc.  Every other constructor is a call to it.

    [gen] runs twice and must pass the same arcs, in any order, both
    times: the first run checks each arc and counts degrees, the
    second fills one exact-size array per node.  Each array is then
    sorted ascending and deduplicated in place, so an arc given twice
    or in both orientations is one edge, and the result does not depend
    on the arcs' order.  The cost is O(n + m + Σ d log d) over the
    nodes' degrees [d] (linear in [d] for rows of at most 32 that
    arrive nearly sorted), and nothing is allocated per arc: only the
    degree counts, one array per node, a merge buffer for each longer
    row, and a shorter copy of a row that held duplicates.

    Errors come from the first run, in arc order, and nothing is built
    then: the first bad arc raises [Invalid_argument], with
    ["Graph: node V out of range \[0,N)"] for an endpoint [V] outside
    [0 .. n-1] (its first endpoint is checked first) and
    ["Graph: self-loop"] for [add v v].
    @raise Invalid_argument if [n < 0], or if the second run passes a
    different number of arcs at some node than the first. *)

val create : n:int -> edges:(node * node) list -> t
(** [create ~n ~edges] builds a graph on [n] nodes with the given edge
    list.  Duplicate edges (in either orientation) are collapsed.
    @raise Invalid_argument on self-loops or out-of-range endpoints, as
    {!build} does, with the list order as arc order. *)

val of_adjacency : int array array -> t
(** [of_adjacency adj] builds a graph from a raw adjacency structure;
    symmetry is enforced (an arc in either direction yields the edge).
    @raise Invalid_argument on self-loops or out-of-range endpoints, as
    {!build} does, with the arcs taken row by row. *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of (undirected) edges. *)

val neighbors : t -> node -> node array
(** [neighbors g v] is the sorted array of neighbors of [v].  The returned
    array is owned by the graph and must not be mutated. *)

val degree : t -> node -> int
(** Degree of a node. *)

val max_degree : t -> int
(** Maximum degree over all nodes; 0 for the empty graph. *)

val mem_edge : t -> node -> node -> bool
(** [mem_edge g u v] tests edge membership in O(log degree). *)

val iter_edges : t -> (node -> node -> unit) -> unit
(** [iter_edges g f] calls [f u v] once per undirected edge, with [u < v]. *)

val fold_edges : t -> init:'a -> f:('a -> node -> node -> 'a) -> 'a
(** Edge fold; visits each undirected edge once with [u < v]. *)

val edges : t -> (node * node) list
(** All edges as pairs [(u, v)] with [u < v], in lexicographic order. *)

val iter_nodes : t -> (node -> unit) -> unit
(** Iterate over all nodes in increasing order. *)

val fold_nodes : t -> init:'a -> f:('a -> node -> 'a) -> 'a
(** Fold over all nodes in increasing order. *)

val equal : t -> t -> bool
(** Structural equality: same node count and same edge set. *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump ([n] plus the edge list), for debugging. *)

val empty : int -> t
(** [empty n] is the edgeless graph on [n] nodes. *)

val complete : int -> t
(** [complete n] is the clique K_n. *)

val path_graph : int -> t
(** [path_graph n] is the path 0 - 1 - ... - (n-1). *)

val cycle_graph : int -> t
(** [cycle_graph n] is the cycle on [n >= 3] nodes.
    @raise Invalid_argument if [n < 3]. *)

val union_disjoint : t -> t -> t
(** [union_disjoint g h] places [h] next to [g]: nodes of [h] are shifted
    by [n g].  No edges are added between the parts. *)

val add_edges : t -> (node * node) list -> t
(** [add_edges g es] is [g] with the extra edges; duplicates are fine. *)

val is_clique : t -> node list -> bool
(** [is_clique g vs] checks that the (distinct) nodes [vs] are pairwise
    adjacent. *)
