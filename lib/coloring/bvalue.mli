(** The a-value and b-value machinery of Section 3.1.

    Colors are [{0, 1, 2}]; color [2] plays the role of the paper's
    color 3 (the "special" color).  For an arc [(u, v)]:

    {ul
    {- [a (u, v) = c u - c v] when neither endpoint has color 2;}
    {- [a (u, v) = 0] otherwise.}}

    The b-value of a directed path or cycle is the sum of [a] over its
    arcs.  The library exports the three properties the lower bounds
    rest on as checkable predicates:

    {ul
    {- Lemma 3.3: every properly colored 4-cycle has [b = 0];}
    {- Lemma 3.4: every simple directed cycle of a properly colored grid
       has [b = 0];}
    {- Lemma 3.5: [b(P) = i(u) + i(v) + length P  (mod 2)] where [i]
       indicates color 2, and [b(C) = length C (mod 2)].}} *)

type colors = int array
(** A total coloring with values in [{0, 1, 2}] indexed by node. *)

val special : int
(** The special color (2 here, 3 in the paper). *)

val a_of_colors : int -> int -> int
(** [a_of_colors cu cv] is Definition 3.1's a-value of an arc whose
    tail has color [cu] and head color [cv]: [cu - cv], or 0 when
    either is the special color.  For callers that read colors one at
    a time rather than from a {!colors} array.
    @raise Invalid_argument if a color is outside [{0, 1, 2}]. *)

val a_value : colors -> Grid_graph.Graph.node -> Grid_graph.Graph.node -> int
(** [a_value c u v] is [a_of_colors c.(u) c.(v)].  Always in
    [{-1, 0, 1}].
    @raise Invalid_argument if a color is outside [{0, 1, 2}]. *)

val indicator : colors -> Grid_graph.Graph.node -> int
(** [i(u)]: 1 when the node has the special color, else 0. *)

val b_path : colors -> Grid_graph.Walk.t -> int
(** b-value of a directed path (sum of [a] over consecutive arcs); 0 for
    paths of length 0.  The path's adjacency is {e not} checked here —
    pair with {!Grid_graph.Walk.is_path} when the input is untrusted. *)

val b_cycle : colors -> Grid_graph.Walk.t -> int
(** b-value of a directed cycle, including the closing arc. *)

val path_parity : colors -> Grid_graph.Walk.t -> int
(** The parity Lemma 3.5 predicts for a path:
    [(i(first) + i(last) + length) mod 2]; 0 for empty paths. *)

val check_parity_path : colors -> Grid_graph.Walk.t -> bool
(** Whether [b_path] has the parity predicted by Lemma 3.5. *)

val check_parity_cycle : colors -> Grid_graph.Walk.t -> bool
(** Whether [b_cycle c w = cycle_length w  (mod 2)]. *)

val check_cell_cancellation : Grid_graph.Graph.t -> colors -> Grid_graph.Walk.t -> bool
(** Lemma 3.3 on one 4-node directed cycle: either the cycle is not a
    properly colored 4-cycle of the graph (vacuously true is {e not}
    assumed — the function returns [false] on malformed input so tests
    catch misuse), or its b-value is 0. *)

val grid_cycle_b_is_zero : Topology.Grid2d.t -> colors -> Grid_graph.Walk.t -> bool
(** Lemma 3.4 specialised to an axis-aligned rectangle boundary given as
    a directed cycle in a simple grid: checks [b = 0].  Works for any
    simple directed cycle (the b-value is computed directly). *)

val rectangle_cycle :
  Topology.Grid2d.t ->
  top:int -> bottom:int -> left:int -> right:int -> Grid_graph.Walk.t
(** The boundary of the axis-aligned rectangle, as a directed cycle
    running rightward along the bottom row, up the right column, leftward
    along the top row and down the left column.  Requires
    [top < bottom] and [left < right].
    @raise Invalid_argument on degenerate or out-of-range rectangles. *)
