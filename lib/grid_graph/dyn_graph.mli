(** A growable simple undirected graph with stable node handles.

    The Online-LOCAL executors grow the revealed region monotonically:
    nodes enter when first seen and never leave, and edges are only ever
    added.  Handles are allocated densely in discovery order and stay
    valid forever, which is what lets an algorithm keep per-node state
    across reveals.  The deferred-placement executor of Theorem 1
    ([Online_local.Virtual_grid]) wires its region at every reveal; the
    fixed-host executor ([Models.Fixed_host]) reads its host's rows and
    wires its region only when an algorithm first reads
    [View.neighbors], step by step as each reveal would have.
    [Canon.of_dyn] reads a region too.

    {b Neighbor order.}  Algorithms observe {!neighbors} through
    [View.neighbors], so its order is part of every game's output.  It
    is the order an unrandomized stdlib [Hashtbl] created with
    [Hashtbl.create 4] and filled by [Hashtbl.replace] yields to
    [Hashtbl.fold (fun w () acc -> w :: acc)], which is {e not} the
    [add_edge] call order:
    - a neighbor [w] of a node of degree [d] sits in bucket
      [Hashtbl.hash w land (b - 1)], where the bucket count [b] is 16 up
      to degree 32 and doubles each time the degree passes [2b];
    - neighbors are listed by bucket, highest first, and within a bucket
      in insertion order, oldest first.

    Each node's list is stored already in that order: an insertion goes
    after every neighbor whose bucket is at least its own, and the
    insertion that doubles [b] re-sorts the list stably by the finer
    bucket (a doubling [Hashtbl] keeps each bucket's relative order).
    Duplicate edges leave the order untouched. *)

type t

val create : unit -> t

val add_node : t -> Graph.node
(** Allocate a fresh node; handles are [0, 1, 2, ...] in order. *)

val add_edge : t -> Graph.node -> Graph.node -> unit
(** Add an undirected edge; duplicates are ignored.
    @raise Invalid_argument on self-loops or unknown handles. *)

val n : t -> int
(** Number of allocated nodes. *)

val mem_edge : t -> Graph.node -> Graph.node -> bool

val neighbors : t -> Graph.node -> Graph.node list
(** Current neighbors, in the order described above. *)

val degree : t -> Graph.node -> int
(** Number of current neighbors. O(1). *)

val neighbor : t -> Graph.node -> int -> Graph.node
(** [neighbor g v i] is element [i] of [neighbors g v], read without
    building the list.  O(1), allocation-free.
    @raise Invalid_argument unless [0 <= i < degree g v]. *)

val snapshot : t -> Graph.t
(** An immutable copy of the current graph; handles coincide. *)
