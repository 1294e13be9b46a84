(** The classical LOCAL model (Section 2.2).

    A LOCAL algorithm with locality [T] maps, for every node
    independently, the node's T-radius ball view (graph structure plus
    unique identifiers) to an output.  The paper's model hierarchy places
    LOCAL at the bottom: {!to_online} is the executable form of "any
    LOCAL algorithm can be simulated in Online-LOCAL with the same
    locality". *)

type t = {
  name : string;
  locality : n:int -> int;
  output : n:int -> palette:int -> View.t -> int;
      (** [view.target] is the node being computed; the view contains
          exactly its [T]-ball, with no outputs visible. *)
}

val ball_view :
  host:Grid_graph.Graph.t ->
  palette:int ->
  radius:int ->
  center:Grid_graph.Graph.node ->
  outputs:(Grid_graph.Graph.node -> int option) ->
  View.t
(** A self-contained view of the ball [B(center, radius)] in the host
    ({!View.ball_view}), with fresh handles in increasing host-node
    order; shared by the LOCAL and SLOCAL executors. *)

val run :
  host:Grid_graph.Graph.t ->
  palette:int ->
  t ->
  Colorings.Coloring.t
(** Evaluate every node's output (conceptually in parallel). *)

val to_online : t -> Algorithm.t
(** Simulation into Online-LOCAL: on each presented node, rebuild the
    T-ball view from the revealed region (which always contains it) and
    run the LOCAL output function; the global memory is unused. *)

val grid_stripes : Topology.Grid2d.t -> t
(** The trivial locality-O(sqrt n) LOCAL algorithm that 3-colors a grid
    by seeing the entire graph and using canonical stripes; the matching
    upper bound for Theorem 2 (up to constants).  The returned algorithm
    is host-specific: it decodes the given grid's host node from the
    view's [id]. *)
