(** The deferred-placement Online-LOCAL executor on a virtual grid.

    The Theorem 1 adversary must grow several grid fragments while
    committing to their relative positions as late as possible: "the
    adversary has the flexibility to adjust the directions of these
    components and the distances between these components, as the
    algorithm is unaware of the precise location of these components"
    (Section 3.2).  This executor realizes that freedom:

    {ul
    {- the adversary works in {e frames} — independent coordinate systems
       holding grid fragments;}
    {- presenting a node reveals its radius-R diamond (the grid ball)
       inside its frame and asks the algorithm for the node's color;}
    {- {!merge} commits the relative placement of two frames (a
       translation plus an optional horizontal reflection) and
       {!reflect} re-orients a frame in place — both are invisible to the
       algorithm, because the fragments' revealed regions must be
       non-adjacent and non-overlapping under the committed placement
       (checked, [Invalid_argument] otherwise);}
    {- {!validate} replays the whole transcript against the final
       placement and verifies that every step showed the algorithm
       exactly the induced subgraph the Online-LOCAL model prescribes —
       the machine-checked honesty certificate for the adversary.}}

    Rows grow downward and columns rightward; coordinates may be
    negative (the virtual grid is unbounded — {!span} reports the
    bounding box so callers can check the construction fits the
    advertised [sqrt n x sqrt n] host).

    {2 Cost model}

    Frame coordinates are packed into single integers
    ({!Grid_graph.Packed.Coord}) and each frame's coordinate table is an
    open-addressing int map, so revealing a radius-R diamond costs
    O(R{^2}) allocation-free probes with the four grid-neighbor lookups
    done by integer arithmetic.  Outputs and the presented set are flat
    arrays indexed by handle: O(1) reads, no boxing.  Coordinates must
    stay within [|row|, |col| < 2{^29}] ([Invalid_argument] otherwise) —
    vastly beyond any constructible instance.  See
    [lib/online_local/README.md]. *)

type t
type frame

val create :
  ?memo:Canon.Memo.ctx ->
  palette:int ->
  n_total:int ->
  radius:int ->
  algorithm:Models.Algorithm.t ->
  unit ->
  t
(** [radius] is the ball radius revealed per presentation (the
    algorithm's locality, plus its oracle radius if any — the built-in
    algorithms attacked here carry none).  [memo] enables the
    step cache: every observable input (presentations, merges,
    reflections) and every answer is folded into the context's chain
    digest, and color calls whose chain key was already answered in an
    earlier run replay the cached color — for [pure] algorithms only,
    charging the guard through the context so memo-on output stays
    byte-identical to memo-off. *)

val new_frame : t -> frame

val present : t -> frame -> row:int -> col:int -> int
(** Present the node at the given frame coordinates; reveals its diamond,
    asks the algorithm, records and returns the color.
    @raise Models.Run_stats.Dishonest_transcript if this exact node was
    already presented. *)

val color_at : t -> frame -> row:int -> col:int -> int option
(** Color output for the node at the coordinates, if presented. *)

val handle_at : t -> frame -> row:int -> col:int -> Grid_graph.Graph.node option
(** The view handle of a revealed coordinate, if revealed. *)

val reflect : t -> frame -> unit
(** Re-orient a frame in place: [(r, c) -> (r, -c)]. *)

val merge : t -> keep:frame -> absorb:frame -> reflect:bool -> dr:int -> dc:int -> unit
(** Commit [absorb]'s placement relative to [keep]:
    [(r, c) -> (r + dr, (if reflect then -c else c) + dc)], then fold its
    nodes into [keep].  The absorbed frame becomes invalid.
    @raise Invalid_argument if the placement makes two already-revealed
    nodes collide or become adjacent (that would contradict the views
    already shown). *)

val frames : t -> frame list
(** All frames still alive (not absorbed by a merge), in creation order. *)

val span : t -> frame -> (int * int) * (int * int)
(** [(row_lo, row_hi), (col_lo, col_hi)] of the frame's revealed region. *)

val violation : t -> Models.Run_stats.violation option
(** First violation observed so far: an out-of-palette answer, or a
    monochromatic edge between two presented nodes of the revealed
    region. *)

val presented_count : t -> int
val revealed_count : t -> int

val snapshot_region : t -> Grid_graph.Graph.t
(** An immutable copy of the revealed region graph (handles coincide).
    O(region) — for tests and verifiers, not per-step use. *)

val output : t -> Grid_graph.Graph.node -> int option
(** The color answered for a revealed handle, if it was presented. *)

val scan_monochromatic : t -> (Grid_graph.Graph.node * Grid_graph.Graph.node) option
(** Exhaustive scan of the revealed region for a monochromatic edge among
    presented nodes. *)

val validate : t -> unit
(** Replay honesty check (O(presented x revealed) — test-sized runs
    only): under the final placement, (a) every revealed pair of
    grid-adjacent nodes is an edge of the region graph and vice versa,
    and (b) every node entered the revealed region exactly at the first
    presentation whose ball contains it, never earlier, never later.
    Frames never merged are taken as placed unboundedly far apart.
    @raise Models.Run_stats.Dishonest_transcript with a diagnostic if the
    transcript was dishonest — the typed form the guarded engine turns
    into an [Adversary_fault] certificate. *)

val bipartition_oracle : t -> Models.Oracle.t
(** A radius-0 bipartition oracle reading coordinate parity from the
    current frames — the honest oracle for algorithms that want one on
    this (bipartite) virtual host. *)
