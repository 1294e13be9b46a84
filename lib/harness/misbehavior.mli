(** Typed certificates of participant misbehavior.

    A game verdict must never confuse "the adversary forced a
    monochromatic edge" with "the algorithm crashed / looped / cheated
    its palette".  Every way a participant can misbehave is one
    constructor here, so executors and the guarded engine can attribute
    it precisely ({!Guard}) and tests can assert on it exactly
    (the E7 fault matrix). *)

type t =
  | Raised of { message : string; backtrace : string }
      (** the participant raised a non-fatal exception ([Stack_overflow],
          [Out_of_memory] and [Sys.Break] are re-raised, never recorded) *)
  | Out_of_palette of { color : int }
      (** the algorithm answered a color outside [{0 .. palette-1}] *)
  | Budget_exhausted of { used : int; budget : int }
      (** the step / color-call budget of the {!Guard} ran out — the
          deterministic rendition of nontermination *)
  | Deadline_exceeded of { elapsed : float; deadline : float }
      (** the wall-clock deadline of the {!Guard} passed *)
  | Dishonest_transcript of { message : string }
      (** the adversary's transcript failed an honesty audit (e.g.
          {!Online_local.Virtual_grid.validate} or
          {!Models.Fixed_host.validate} under [~paranoid], or a node
          presented twice) *)
  | Unresponsive of { elapsed : float; limit : float }
      (** the cell stopped responding entirely — it blocked without
          ticking, so the in-process {!Guard} deadline poll never fired,
          and the {!Supervisor} watchdog had to kill the worker process
          after [elapsed] seconds (per-attempt limit [limit]).  Only a
          worker process can produce this certificate; see the
          "Blocking thunks" note in [guard.mli]. *)

val label : t -> string
(** Short stable tag ("raised", "out-of-palette", ...) for tables. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
