(** The Theorem 1 adversary: 3-coloring a simple grid needs locality
    Omega(log n) in Online-LOCAL.

    The strategy of Lemma 3.6, transcribed: recursively force two
    directed row paths of b-value [>= k-1] in independent frames, commit
    their relative placement with a region gap of 2 or 3 columns chosen
    so the connecting path's b-value parity breaks the tie (Lemma 3.5),
    and read off a path of b-value [>= k] from one of the four candidate
    orientations.  The Theorem 1 endgame then asks for a second row at
    vertical distance [2T + 2], orients it favourably (the frames are
    separate components, so the reflection is free), fills the rectangle
    between them, and exhibits a directed cycle of nonzero b-value —
    impossible for a proper coloring by Lemma 3.4, so a monochromatic
    edge must exist and is reported as the violation certificate.

    The recursion's region width doubles per b-value unit, so the forced
    b-value on an [s x s] grid is about [log2 s] — and the cycle argument
    needs [k > 4T + 4]: the executable form of the Omega(log n) bound. *)

type report = {
  result : Models.Run_stats.result;
  forced_b : int;  (** b-value of the directed path the recursion achieved *)
  cycle_b : int option;  (** b-value of the closing cycle (endgame only) *)
  presented : int;
  revealed : int;
  width : int;  (** columns spanned by the final merged region *)
  height : int;  (** rows spanned, including the second-row band *)
  fits : bool;  (** whether the whole construction fits in n_side^2 *)
  snapshot : string option;
      (** with [~snapshot:true]: an ASCII picture of the endgame window
          (digits = output colors, 'o' = revealed but never presented,
          ' ' = unseen) — the library's rendition of the paper's
          Figure 6 *)
}

val pp_report : Format.formatter -> report -> unit

val observe : report -> unit
(** Observe the report's [thm1.presented], [thm1.revealed],
    [thm1.span_width] and [thm1.span_height] stats series (a no-op while
    {!Obs.Stats} is off).  {!run} calls it on every report it returns;
    a cache that answers a run from a stored report calls it too, so a
    cached run's stats are the live run's. *)

val run :
  ?endgame:bool ->
  ?validate:bool ->
  ?snapshot:bool ->
  ?dims:int * int ->
  n_side:int ->
  k:int ->
  algorithm:Models.Algorithm.t ->
  unit ->
  report
(** Play the adversary with b-value target [k] against the algorithm on
    a virtual [n_side x n_side] grid — or on a rectangular
    [rows x cols] grid when [~dims:(rows, cols)] is given, which
    exercises the remark after Theorem 1: on an [(a x b)] grid the
    construction needs width about [2^k T] ≤ b {e and} height
    [2T + 3 + 2T] ≤ a, yielding the Omega(min(log b, a)) bound.
    [~endgame:false] stops after the path construction (useful for
    measuring forced b-values at scale without paying for the rectangle
    fill).  [~validate:true] replays the transcript through
    {!Virtual_grid.validate}. *)

val recommended_k : n_side:int -> t:int -> int
(** The largest b-value target whose construction (path plus endgame
    rectangle) still fits in an [n_side x n_side] grid against a
    locality-[t] algorithm, per the actual width recurrence
    [w(k) = 2 w(k-1) + 3], [w(0) = 2t + 1].  0 when even the base case
    does not fit. *)

val guaranteed : t:int -> k:int -> bool
(** Whether the proof guarantees defeat: [k > 4t + 4], so the cycle
    b-value [k - 2 (2t + 2)] is positive regardless of how the algorithm
    colors the connecting columns. *)
