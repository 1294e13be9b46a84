(** The Theorem 2 adversary: 3-coloring toroidal and cylindrical grids
    needs locality Omega(sqrt n) in Online-LOCAL.

    With an odd number of columns every row cycle has an odd b-value
    (Lemma 3.5), and for any proper coloring two rows oriented in
    opposite directions must have b-values summing to zero (Equation 1,
    by cell cancellation).  The adversary asks the algorithm to color two
    full rows whose T-radius bands are disjoint; from the algorithm's
    perspective these are two disconnected cylindrical bands, so the
    adversary is free to reflect one of them afterwards — flipping the
    sign of its odd (hence nonzero) b-value and breaking Equation 1.

    Reflection is realized as a {e host variant}: the grid in which the
    vertical edges crossing one unrevealed seam (two seams on the torus)
    connect column [j] to column [-j mod cols].  The variant is
    isomorphic to the plain grid and agrees with it on both revealed
    bands, so a deterministic algorithm colors the two rows identically
    on either host — the adversary probes on the plain host, picks the
    variant that breaks Equation 1, and replays the full presentation
    there. *)

type report = {
  result : [ `Defeated of Models.Run_stats.violation | `Survived ];
  s_east : int;  (** b-value of row 1 directed east (final coloring) *)
  s_west : int;  (** b-value of row 2 directed west (final coloring) *)
  reflected : bool;  (** whether the reflected variant was selected *)
  presented : int;
  revealed : int;  (** nodes revealed in the final (replay) run — not
      printed by {!pp_report}, whose output is pinned by goldens *)
  preconditions_met : bool;  (** odd side and 4T+4 <= side *)
}

val pp_report : Format.formatter -> report -> unit

val variant_host :
  wrap:[ `Cylindrical | `Toroidal ] -> side:int -> reflect:bool ->
  band_lo:int -> band_hi:int -> Grid_graph.Graph.t
(** The [side x side] grid of the given wrap, with rows
    [band_lo .. band_hi] column-reflected when [reflect] (the crossing
    seams sit just outside the band).  [reflect:false] is the plain
    grid.  Exposed for the isomorphism tests. *)

val run :
  ?memo:Canon.Memo.ctx ->
  wrap:[ `Cylindrical | `Toroidal ] ->
  side:int ->
  algorithm:Models.Algorithm.t ->
  unit ->
  report
(** Play the adversary on a [side x side] grid ([side] odd).  Probes the
    two rows on the plain host, selects the variant, replays in full,
    and audits the outcome. *)

val row_cycle_b : Colorings.Coloring.t -> side:int -> row:int -> east:bool -> int
(** b-value of the directed cycle along one row of a [side x side]
    wrapped grid under the (row-major) coloring; [east] traverses by
    increasing column. *)

val variant_host_rect :
  wrap:[ `Cylindrical | `Toroidal ] -> rows:int -> cols:int -> reflect:bool ->
  band_lo:int -> band_hi:int -> Grid_graph.Graph.t
(** Rectangular generalization of {!variant_host}. *)

val run_rect :
  ?memo:Canon.Memo.ctx ->
  wrap:[ `Cylindrical | `Toroidal ] ->
  rows:int ->
  cols:int ->
  algorithm:Models.Algorithm.t ->
  unit ->
  report
(** The remark after Theorem 2: on an [(a x b)] wrapped grid with an odd
    number of columns [b], the attack defeats any algorithm of locality
    [T <= (a - 4) / 4] — linear in the number of rows, independent of
    [b].  [run] is the square [a = b] case. *)

val row_cycle_b_rect :
  Colorings.Coloring.t -> cols:int -> row:int -> east:bool -> int
(** Rectangular generalization of {!row_cycle_b}. *)
