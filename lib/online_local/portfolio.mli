(** Baseline algorithms the lower-bound adversaries are played against.

    A lower-bound theorem quantifies over all algorithms; an executable
    reproduction demonstrates the adversary against a portfolio of
    concrete ones, from naive to the paper's own upper-bound algorithm
    run at a deliberately insufficient locality.  Every entry returns a
    fresh {!Models.Algorithm.t} per call (no shared state between runs). *)

val greedy : unit -> Models.Algorithm.t
(** Locality-1 first-fit greedy (see {!Models.Algorithm.greedy_first_fit}). *)

val hint_parity : unit -> Models.Algorithm.t
(** 2-coloring by frame-coordinate parity; ignores merges entirely. *)

val stripes3 : unit -> Models.Algorithm.t
(** 3-coloring by [(row + col) mod 3] from grid hints: proper on any
    fixed simple grid, but frame-relative — reflections and merge offsets
    break it.  The strongest hint-only baseline for grid adversaries. *)

val gadget_rows : unit -> Models.Algorithm.t
(** Colors gadget nodes by their row index from gadget hints — proper on
    the plain chain [G*] and row-colorful everywhere, hence the cleanest
    victim of the Theorem 3 seam. *)

val ael : t:int -> unit -> Models.Algorithm.t
(** The Akbari et al. 3-coloring of bipartite graphs at fixed locality
    [t] (oracle-free). *)

val kp1 : k:int -> t:int -> unit -> Models.Algorithm.t
(** The Theorem 4 algorithm at fixed locality [t] (needs an executor
    oracle). *)

val grid_baselines : unit -> (string * Models.Algorithm.t) list
(** The grid-adversary portfolio: greedy, hint-parity, stripes3, and ael
    at localities 1, 2 and 4. *)
