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
  result : Models.Run_stats.result;
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
  ?validate:bool ->
  k:int ->
  gadgets:int ->
  algorithm:Models.Algorithm.t ->
  unit ->
  report
(** Play the adversary on a chain of [gadgets] gadgets of side [k]
    (so [n = gadgets * k^2]) with palette [2k - 2].  When the
    preconditions hold it probes the end gadgets on the plain chain,
    picks the host, and replays in full (a probe that
    {!Models.Fixed_host.stopped} is the run); otherwise it plays the
    plain chain and reports no classes.  [~validate:true] (default [false])
    replay-checks both runs with {!Models.Fixed_host.validate}; a
    failure raises {!Models.Run_stats.Dishonest_transcript}.
    @raise Invalid_argument if [k < 3] (with [k = 2] the palette would
    have 2 colors and the instance is degenerate) or [gadgets < 3]. *)
