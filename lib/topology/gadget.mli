(** The gadget chain [G*] of Section 4: the hard instance for
    (2k-2)-coloring k-partite graphs.

    A gadget [A(k)] has node set [[k] x [k]]; two nodes are adjacent iff
    they are in neither the same row nor the same column.  [G*] chains
    [n'] gadgets, connecting nodes of consecutive gadgets under the same
    "different row and different column" rule.

    The {!create} function also exposes the adversary's relabeling power:
    an optional {e seam} index [s] builds the variant of [G*] in which the
    connection between gadgets [s] and [s+1] matches the row index on one
    side against the column index on the other.  The seam variant is
    isomorphic to [G*] (transpose every gadget after the seam), and its
    prefix and suffix induced subgraphs are byte-identical to the plain
    ones — which is exactly the freedom the Theorem 3 adversary uses. *)

type t

val create : ?seam:int -> k:int -> gadgets:int -> unit -> t
(** [create ~k ~gadgets ()] builds [G*] with [gadgets] gadgets of side
    [k].  With [?seam:s] (requiring [0 <= s < gadgets - 1]) the
    transposed connection is used between gadgets [s] and [s+1].
    @raise Invalid_argument if [k < 2], [gadgets < 1], or the seam is out
    of range. *)

val graph : t -> Grid_graph.Graph.t
val k : t -> int
val gadgets : t -> int
val seam : t -> int option

val node : t -> gadget:int -> row:int -> col:int -> Grid_graph.Graph.node
(** Handle of the node in position [(row, col)] of a gadget (all
    0-indexed).
    @raise Invalid_argument if out of range. *)

val coords : t -> Grid_graph.Graph.node -> int * int * int
(** [(gadget, row, col)] of a handle. *)

val gadget_nodes : t -> int -> Grid_graph.Graph.node list
(** The [k^2] nodes of one gadget, in row-major order. *)

val canonical_k_coloring : t -> int array
(** The proper k-coloring of Proposition 4.1: color every node by its row
    index (transposed after the seam, if any). *)
