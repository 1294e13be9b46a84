(** The property runner: seeded case generation, greedy shrinking to a
    minimal counterexample, and one-line replay.

    Every case [i] of a check runs on the stream
    [Rng.of_seed_case ~seed ~case:i] at a size that ramps linearly over
    the case budget — so cases are independent of each other and of the
    process that runs them, which is what lets [fuzz.exe] run a target
    on any worker and still report byte-identical results at any jobs
    count.

    On failure the runner descends the generator's shrink tree greedily
    (first failing child, repeat) and reports the minimal
    counterexample together with a {e replay token}
    [name:seed:case:size].  Re-running the test binary with
    [PROPTEST_REPLAY=<token>] in the environment — or
    [bin/fuzz.exe --replay <token>] for fuzz targets — re-executes
    exactly that failing case, nothing else. *)

type config = {
  cases : int;  (** cases to run (default 100) *)
  seed : int;
      (** stream seed; the default honors [PROPTEST_SEED] when set,
          else [0x5EED] *)
  max_shrinks : int;  (** accepted shrink steps before giving up *)
  size_min : int;  (** size hint of case 0 *)
  size_max : int;  (** size hint of the last case *)
}

val default_config : config
(** [{ cases = 100; seed = $PROPTEST_SEED or 0x5EED; max_shrinks = 1000;
      size_min = 5; size_max = 50 }] *)

type counterexample = {
  name : string;
  seed : int;
  case : int;  (** index of the failing case *)
  size : int;  (** size hint the failing case ran at *)
  shrink_steps : int;  (** accepted shrinks from original to minimal *)
  printed : string;  (** minimal counterexample, printed *)
  message : string;  (** why the property failed on it *)
  replay : string;  (** the replay token [name:seed:case:size] *)
}

type result = Passed of { cases : int } | Failed of counterexample

val replay_token : name:string -> seed:int -> case:int -> size:int -> string

val parse_replay_token : string -> (string * int * int * int) option
(** [(name, seed, case, size)] from a token, [None] on malformed
    input. *)

val size_for : config -> int -> int
(** Size hint for case [i]: linear from [size_min] to [size_max]. *)

val pp_counterexample : Format.formatter -> counterexample -> unit
(** The full failure report: counterexample, reason, shrink count,
    and the replay line. *)

(** {2 Single cases} (the building blocks {!Fuzz_run} parallelizes) *)

type 'a case_outcome =
  | Case_pass
  | Case_fail of { tree : 'a Gen.tree; message : string }

val eval : ('a -> bool) -> 'a -> string option
(** [None] when the property holds; [Some reason] when it returns
    [false] or raises a non-fatal exception.  [Stack_overflow],
    [Out_of_memory] and [Sys.Break] re-raise. *)

val run_case :
  'a Gen.t -> ('a -> bool) -> seed:int -> case:int -> size:int -> 'a case_outcome

val shrink :
  max_shrinks:int -> ('a -> bool) -> 'a Gen.tree -> message:string -> 'a * int * string
(** Greedy descent to a minimal failing value:
    [(minimal, accepted_steps, final_message)]. *)

val counterexample_of :
  config:config ->
  name:string ->
  print:('a -> string) ->
  case:int ->
  size:int ->
  ('a -> bool) ->
  'a Gen.tree ->
  string ->
  counterexample
(** [counterexample_of ~config ~name ~print ~case ~size prop tree
    message] shrinks the failing [tree] of case [case] (at most
    [config.max_shrinks] steps) and reports the minimal value, with its
    replay token.  [message] is why [prop] failed on the tree's root. *)

(** {2 Whole checks} *)

val check :
  ?config:config ->
  name:string ->
  print:('a -> string) ->
  'a Gen.t ->
  ('a -> bool) ->
  result
(** Run all cases (or, when [PROPTEST_REPLAY] names this property,
    exactly the token's case) and shrink the first failure. *)

val check_exn :
  ?config:config ->
  name:string ->
  print:('a -> string) ->
  'a Gen.t ->
  ('a -> bool) ->
  unit
(** Like {!check} but raises [Failure] with the formatted
    counterexample report — the alcotest-friendly face: the report
    (replay token included) lands in the test failure output. *)
