(** Union-find over a growing universe: a disjoint-set forest with path
    compression and union by size, whose elements (view handles) appear
    over time, which is how groups evolve in an Online-LOCAL run. *)

type t

val create : unit -> t

val ensure : t -> int -> unit
(** Make sure elements [0 .. handle] exist (as singletons if new). *)

val find : t -> int -> int
val union : t -> int -> int -> int
val same : t -> int -> int -> bool
val size : t -> int -> int
