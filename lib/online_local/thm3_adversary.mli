(** The Theorem 3 adversary: (2k-2)-coloring k-partite graphs needs
    locality Omega(n) in Online-LOCAL.

    On the gadget chain [G*], any proper (2k-2)-coloring makes every
    gadget row-colorful or every gadget column-colorful (Lemma 4.6).  The
    adversary presents the first gadget, then the last; if the algorithm
    classifies them the same way, it replays the presentation on the
    {e seam variant} of [G*] — isomorphic to [G*] via transposing every
    gadget past an unrevealed seam, and identical to it on both revealed
    neighborhoods — under which the two classifications now conflict.
    Either way the completed coloring cannot be proper. *)

type report = {
  result : [ `Defeated of Models.Run_stats.violation | `Survived ];
  first_class : Colorings.Colorful.classification option;
      (** classification of gadget 0 after the probe *)
  last_class : Colorings.Colorful.classification option;
      (** classification of the last gadget after the probe (on the
          chosen host, i.e. post-transposition) *)
  seam_used : bool;
  presented : int;
  revealed : int;  (** nodes revealed in the final run — not printed by
      {!pp_report}, whose output is pinned by goldens *)
  preconditions_met : bool;  (** T-balls of the end gadgets clear of each other and of the seam *)
}

val pp_report : Format.formatter -> report -> unit

val run :
  ?memo:Canon.Memo.ctx ->
  k:int ->
  gadgets:int ->
  algorithm:Models.Algorithm.t ->
  unit ->
  report
(** Play the adversary on a chain of [gadgets] gadgets of side [k]
    (so [n = gadgets * k^2]) with palette [2k - 2].
    @raise Invalid_argument if [k < 3] (with [k = 2] the palette would
    have 2 colors and the instance is degenerate) or [gadgets < 3]. *)
