(** Generators with integrated shrinking.

    A generator does not produce a bare value: it produces a lazy {e
    shrink tree} — the generated value at the root, with every child a
    smaller variant that itself carries its own shrinks (the
    Hedgehog-style design, rather than QuickCheck's separate
    [shrink] function).  Because shrinking is built into generation,
    every combinator ({!map}, {!bind}, {!list}, ...) shrinks for free
    and shrunk values always satisfy the generator's invariants: a
    [bind]-dependent generator re-generates its inner value from the
    same split stream when the outer value shrinks, so e.g. a graph's
    edge list stays in range while its node count shrinks.

    Trees are lazy ([Seq.t] children): only the candidates the shrink
    search actually visits are ever constructed. *)

type 'a tree = Tree of 'a * 'a tree Seq.t
(** A value and its lazily produced smaller variants. *)

val root : 'a tree -> 'a
val children : 'a tree -> 'a tree Seq.t

type 'a t = size:int -> Rng.t -> 'a tree
(** A generator: from a size hint and a stream, a shrink tree.  [size]
    scales "how big" compound structures get; the runner ramps it up
    over the case budget. *)

val generate : 'a t -> size:int -> Rng.t -> 'a
(** Root of the generated tree — generation without shrinking. *)

(** {2 Primitives} *)

val return : 'a -> 'a t
val map : ('a -> 'b) -> 'a t -> 'b t
val map2 : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t
val map3 : ('a -> 'b -> 'c -> 'd) -> 'a t -> 'b t -> 'c t -> 'd t
val pair : 'a t -> 'b t -> ('a * 'b) t

val bind : 'a t -> ('a -> 'b t) -> 'b t
(** Monadic dependency.  Shrinks the outer value first (re-generating
    the inner value deterministically from the recorded stream), then
    the inner one. *)

val int_range : int -> int -> int t
(** Uniform on the inclusive range; shrinks towards the {e origin} —
    0 when the range contains it, else the endpoint closest to 0 —
    by binary halving. *)

val bool : bool t
(** Shrinks [true] to [false]. *)

val frequency : (int * 'a t) list -> 'a t
(** Weighted choice.
    @raise Invalid_argument on an empty list or nonpositive total. *)

val oneof_const : 'a list -> 'a t
(** Uniform choice among constants; shrinks towards the head of the
    list. *)

val sized : (int -> 'a t) -> 'a t
(** Read the current size hint. *)

val list : ?min_len:int -> max_len:int -> 'a t -> 'a list t
(** Length uniform in [[min_len, max_len]] (default [min_len = 0]),
    then that many elements.  Shrinks by removing chunks of elements
    (never below [min_len]) and by shrinking individual elements. *)

val list_size : int -> 'a t -> 'a list t
(** Exactly that many elements; shrinks elements only. *)

val permutation : 'a list -> 'a list t
(** A uniform (Fisher-Yates) shuffle.  Shrinks towards the input order
    by undoing one recorded swap at a time, so a minimal counterexample
    is as close to the unshuffled order as the property allows. *)

val such_that : ?max_tries:int -> ('a -> bool) -> 'a t -> 'a t
(** Retry (fresh stream each time, default 100 tries) until the
    predicate holds, and prune shrink candidates that violate it.
    @raise Failure when no try satisfies the predicate. *)

val of_rng_fun : (size:int -> Rng.t -> 'a) -> 'a t
(** Lift a plain seeded sampling function into a (non-shrinking)
    generator — the bridge for domain code that already knows how to
    sample from an {!Rng.t}. *)

(** {2 Tree surgery} (exposed for the runner and for engine tests) *)

val map_tree : ('a -> 'b) -> 'a tree -> 'b tree
val filter_tree : ('a -> bool) -> 'a tree -> 'a tree
(** Prune children whose root fails the predicate (the root of the
    whole tree is kept regardless). *)
