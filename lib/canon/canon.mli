(** Canonical labeling for vertex-colored graphs.

    Pure-OCaml refinement + targeted individualization — no C stub.
    Revealed views in the online-LOCAL games are small (tens to a few
    thousand nodes), so an exponential-worst-case search with good
    refinement is the right trade: on path/grid-shaped views the 1-WL
    refinement discretizes after at most a couple of individualization
    steps.

    Two isomorphic colored graphs (a bijection of vertices preserving
    both adjacency and vertex colors) get the {e same} {!key}; two
    non-isomorphic ones get different keys.  The {!certificate} is the
    witnessing relabeling into canonical positions, so cached responses
    can be transported back to concrete handles.

    Colors are semantic: they encode whatever per-vertex decoration must
    be respected by the isomorphism (partial coloring outputs, the
    current target, hint classes, ...).  Callers build the color ints
    with an injective encoding — see [bin/exhaust.ml]. *)

type graph = {
  n : int;
  adj : int array array;  (** [adj.(v)] sorted ascending, no self loops *)
  colors : int array;  (** semantic vertex colors, arbitrary ints *)
}

val make : n:int -> edges:(int * int) list -> colors:int array -> graph
(** Build a graph from an edge list.  Ignores self loops, deduplicates
    parallel edges, rejects out-of-range endpoints and a [colors] array
    of length other than [n]. *)

val of_graph : Grid_graph.Graph.t -> colors:(int -> int) -> graph
(** Adapt an immutable {!Grid_graph.Graph}; [colors v] decorates
    vertex [v]. *)

val of_dyn : Grid_graph.Dyn_graph.t -> colors:(int -> int) -> graph
(** Adapt a {!Grid_graph.Dyn_graph} snapshot (handles [0..n-1]). *)

val certificate : graph -> int array
(** [certificate g] is a permutation [p] with [p.(v)] the canonical
    position of vertex [v]: [transport (certificate g) g = canon g],
    and two isomorphic graphs transport to the {e same} graph. *)

val transport : int array -> graph -> graph
(** [transport p g] relabels [g] by [p] ([p.(v)] is the new name of
    [v]).  Rejects non-permutations. *)

val canon : graph -> graph
(** The canonical form: [transport (certificate g) g].  Isomorphic
    inputs have equal (structurally equal) canonical forms. *)

val key : graph -> string
(** Compact printable serialization of {!canon} — equal exactly on
    color-isomorphic graphs.  Format (documented in
    [lib/canon/README.md]): ["n;c0,c1,...;a-b,a-b,..."] with colors in
    canonical vertex order and edges sorted. *)

val digest : graph -> string
(** MD5 hex of {!key} — fixed-width key for cache tables. *)

val iso_equal : graph -> graph -> bool
(** [iso_equal a b]: color-preserving isomorphism test via key
    equality. *)

val refine_classes : graph -> int array
(** The stable 1-WL color partition (exposed for tests): class indices
    in [0..k-1], isomorphism-invariant, fixpoint of signature
    refinement starting from the vertex colors.  Not necessarily
    discrete — {!certificate} individualizes on top of it. *)
