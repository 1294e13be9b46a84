(** What an Online-LOCAL algorithm sees when the adversary presents a node.

    Per Section 2.2, after presenting [v_1, ..., v_i] the algorithm knows
    the subgraph [G_i] induced by the union of the T-radius balls of the
    presented nodes, the presentation sequence, and the outputs it
    produced.  A view exposes exactly that and nothing else:

    {ul
    {- nodes are {e handles} — dense integers allocated in discovery
       order, stable for the whole run, carrying no geometric meaning;}
    {- each handle has a unique identifier, [id] below;}
    {- optional {e hints} expose coordinates in a per-component frame.
       A frame is only meaningful up to the isometries of the host
       family (translation, reflection), and frames merge when the
       adversary commits relative placements — so hints never reveal
       more than the revealed subgraph structure already determines.}}

    Views are windows onto the executor's mutable state: accessors always
    answer about the {e current} step.  Algorithms must not cache a view
    across steps (cache facts, not views). *)

type hint =
  | Grid_pos of { frame : int; row : int; col : int }
      (** position in a 2d-grid component frame *)
  | Gadget_pos of { frame : int; gadget : int; row : int; col : int }
      (** position in a gadget-chain component frame *)
  | Layer_pos of { layer : int }
      (** layer index in a layered graph [G_k] *)

type t = {
  n_total : int;  (** number of nodes of the whole input graph (known to algorithms) *)
  palette : int;  (** number of allowed colors *)
  node_count : unit -> int;  (** handles allocated so far *)
  neighbors : Grid_graph.Graph.node -> Grid_graph.Graph.node list;
      (** revealed neighbors of a revealed handle, in the executor's
          order: for [Fixed_host] and the deferred executor, the
          order [Grid_graph.Dyn_graph] documents.  That order is part of
          every game's output, so an algorithm whose answers depend on
          neighbor order must read this field. *)
  iter_neighbors : Grid_graph.Graph.node -> (Grid_graph.Graph.node -> unit) -> unit;
      (** [iter_neighbors h f] calls [f] once on each revealed neighbor
          of [h]: the set [neighbors] lists, in an unspecified order,
          without building the list.  [Fixed_host] reads it from the
          host row without wiring its region graph, which only
          [neighbors] needs. *)
  mem_edge : Grid_graph.Graph.node -> Grid_graph.Graph.node -> bool;
  id : Grid_graph.Graph.node -> int;
      (** the handle's unique identifier.  On a fixed host ([Fixed_host],
          and the balls of [Local_model] and [Slocal]) it is host node + 1,
          which [Local_model.grid_stripes] and E2's [id-stripes] decode as
          [id - 1]; the deferred executor, whose host is placed only at
          the end, uses handle + 1. *)
  output : Grid_graph.Graph.node -> int option;
      (** the color already output for a handle, if presented before *)
  hint : Grid_graph.Graph.node -> hint option;
  target : Grid_graph.Graph.node;  (** the handle that must be colored now *)
  new_nodes : Grid_graph.Graph.node list;
      (** handles that entered the revealed region at this step,
          in increasing handle order; includes [target] on its first
          appearance *)
  step : int;  (** 1-based index of this presentation *)
}

val snapshot_graph : t -> Grid_graph.Graph.t
(** An immutable copy of the revealed region (handles coincide).  O(size
    of the region) — meant for tests and small algorithms, not for use on
    every step of a large run. *)

val ball : t -> Grid_graph.Graph.node -> int -> Grid_graph.Graph.node list
(** [ball view v r]: handles within distance [r] of [v] {e in the
    revealed region}.  When the executor guarantees the host ball
    [B(v, r)] is fully revealed (always true for [v = target], [r <=
    locality]), this equals the host ball. *)

val ball_view : t -> int -> output:(Grid_graph.Graph.node -> int option) -> t
(** [ball_view view r ~output]: the target's [ball view view.target r]
    as a self-contained view, the one a LOCAL or SLOCAL rule sees.  Its
    handles are fresh, [0, 1, ...] in increasing order of [view]'s, so
    nothing outside the ball is reachable; [n_total], [palette], ids and
    edges read through to [view]; there are no hints; [output] is asked
    at [view]'s handle.  It is step 1, and every handle is new. *)
