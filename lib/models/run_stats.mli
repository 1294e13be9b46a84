(** Outcomes and violation certificates common to all executors.

    Lower-bound adversaries must end a run with a concrete, checkable
    certificate that the algorithm failed; upper-bound runs must end with
    none. *)

exception Dishonest_transcript of string
(** Raised by executors and transcript auditors when the {e adversary}
    side breaks the model's rules — a node presented twice, a replay
    audit mismatch.  A dedicated constructor so the guarded engine can
    classify audit failures by exception type ({!Harness.Guard.capture}
    maps it to [Misbehavior.Dishonest_transcript]) instead of sniffing
    message text. *)

type violation =
  | Monochromatic_edge of Grid_graph.Graph.node * Grid_graph.Graph.node
      (** two adjacent host nodes got the same color *)
  | Palette_overflow of { node : Grid_graph.Graph.node; color : int }
      (** the algorithm answered outside [{0 .. palette-1}] *)
  | Repeated_presentation of Grid_graph.Graph.node
      (** the reveal order presented a node twice (an adversary bug, not
          an algorithm failure — executors refuse to continue) *)
  | Algorithm_failure of {
      node : Grid_graph.Graph.node;
      message : string;
      backtrace : string;
          (** [Printexc.get_backtrace] at the catch site ([""] when
              backtrace recording is off) *)
    }
      (** the algorithm raised a non-fatal exception when asked to color
          the node — a failure like any other (e.g. the bipartite
          3-coloring algorithm fed a non-bipartite host).  Fatal runtime
          exceptions ([Stack_overflow], [Out_of_memory], [Sys.Break])
          are re-raised by the executors, never recorded here. *)

type result = [ `Defeated of violation | `Survived ]
(** A run's raw result; [Online_local.Verdict.classify] says what it counts as. *)

type outcome = {
  coloring : Colorings.Coloring.t;  (** indexed by host node *)
  violation : violation option;  (** first violation discovered, if any *)
  presented : int;  (** number of presentation steps executed *)
  revealed : int;
      (** number of host nodes revealed (in some ball): the revealed
          region only grows, so this is also the largest view *)
}

val pp_violation : Format.formatter -> violation -> unit

val pp_result : Format.formatter -> result -> unit
(** [DEFEATED (<violation>)], whatever the violation, or [survived]: the
    adversary reports' result field, so sweep and served cells print an
    algorithm that raised as DEFEATED, not as Verdict's algorithm fault. *)

val pp_outcome : Format.formatter -> outcome -> unit

val succeeded : outcome -> colors:int -> host:Grid_graph.Graph.t -> bool
(** Whether the run produced a total, proper coloring within the palette:
    no violation, every node colored, every color < colors, no
    monochromatic edge.  The explicit rechecks make this the final word
    even if an executor had a bookkeeping bug. *)
