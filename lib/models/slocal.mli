(** The SLOCAL model [GKM17] (Section 1).

    Nodes are processed in an adversarial order; the output of a node may
    depend on its T-radius ball {e and the outputs already assigned
    inside that ball} — but, unlike Online-LOCAL, on no global memory and
    on nothing outside the ball.  The executable simulation {!to_online}
    witnesses SLOCAL <= Online-LOCAL. *)

type t = {
  name : string;
  locality : n:int -> int;
  output : n:int -> palette:int -> View.t -> int;
      (** the view is the target's T-ball, with prior outputs visible *)
}

val run :
  host:Grid_graph.Graph.t ->
  palette:int ->
  order:Grid_graph.Graph.node list ->
  t ->
  Colorings.Coloring.t
(** Process the nodes in the given order. *)

val to_online : t -> Algorithm.t
(** Run the SLOCAL rule inside Online-LOCAL, ignoring the global memory
    and masking the view down to the target's ball. *)

val greedy : t
(** The locality-1 greedy coloring — the textbook SLOCAL example: pick
    the smallest color unused among already-colored neighbors.  Solves
    (degree+1)-coloring; with a smaller palette it answers 0 when stuck. *)
