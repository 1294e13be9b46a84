(** Packed integer coordinates and allocation-light containers.

    The executor hot paths key revealed cells by a {e single} immediate
    integer instead of an [(int * int)] pair, removing per-probe boxing
    and polymorphic hashing.  The encoding and the invariants it must
    preserve are recorded in DESIGN.md ("Packed coordinates and executor
    invariants"). *)

module Coord : sig
  (** A coordinate [(row, col)] packed into one OCaml [int] as
      [(row lsl 31) lor ((col + 2{^30}) land (2{^31}-1))].

      The column is biased by [2{^30}] so both row and column admit
      negative values while [k + 1]/[k - 1] step one column and
      [k + row_step]/[k - row_step] step one row by plain integer
      arithmetic — no carry crosses the row/column boundary anywhere in
      the valid range.  Valid range: [|row| < 2{^29}] and
      [|col| < 2{^29}]; packing order is lexicographic in [(row, col)],
      so sorting packed keys sorts coordinates. *)

  val pack : int -> int -> int
  (** [pack r c] packs without a range check — O(1), hot path. *)

  val pack_checked : int -> int -> int
  (** Like {!pack} but raises [Invalid_argument] outside the valid
      range.  Used once per fresh coordinate at reveal time. *)

  val row : int -> int
  (** Row of a packed key. *)

  val col : int -> int
  (** Column of a packed key. *)

  val unpack : int -> int * int
  (** [unpack k] is [(row k, col k)]. *)

  val in_range : int -> int -> bool
  (** Whether [(r, c)] lies in the packable range [|r|, |c| < 2{^29}]. *)

  val row_step : int
  (** Additive offset of one row: [pack (r+1) c = pack r c + row_step]. *)

  val north : int -> int
  (** [north k] is the cell one row up ([row - 1]). O(1). *)

  val south : int -> int
  (** [south k] is the cell one row down ([row + 1]). O(1). *)

  val west : int -> int
  (** [west k] is the cell one column left ([col - 1]). O(1). *)

  val east : int -> int
  (** [east k] is the cell one column right ([col + 1]). O(1). *)
end

module Table : sig
  (** Open-addressing [int -> int] hash table with linear probing.

      No deletion — the executors only accumulate bindings.  All
      operations are O(1) amortized with load kept below 50%; probes
      allocate nothing.  Keys must avoid {!empty_key} ([min_int]), which
      {!Coord.pack} never produces in range. *)

  type t

  val empty_key : int
  (** The reserved sentinel key ([min_int]). *)

  val create : ?capacity:int -> unit -> t
  (** Fresh table sized for [capacity] bindings (default 16). *)

  val length : t -> int
  (** Number of bindings. O(1). *)

  val set : t -> int -> int -> unit
  (** [set t k v] binds [k] to [v], replacing any previous binding. *)

  val mem : t -> int -> bool
  (** Whether [k] is bound. Allocation-free. *)

  val find_default : t -> int -> default:int -> int
  (** Binding of [k], or [default] when unbound. Allocation-free. *)

  val find_opt : t -> int -> int option
  (** Binding of [k] as an option. *)

  val fold : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a
  (** Fold over bindings in unspecified order — callers must be
      order-insensitive (see DESIGN.md invariants). *)

  val iter : t -> f:(int -> int -> unit) -> unit
  (** Iterate over bindings in unspecified order. *)

  val clear : t -> unit
  (** Remove all bindings, keeping the allocated capacity. *)
end

module Set : sig
  (** Dense byte-backed set over [0 .. n-1]. *)

  type t

  val create : int -> t
  (** [create n] is the empty set over universe [0 .. n-1]. *)

  val mem : t -> int -> bool
  (** Membership test. O(1), allocation-free.
      @raise Invalid_argument outside the universe. *)

  val add : t -> int -> unit
  (** Insert an element. O(1).
      @raise Invalid_argument outside the universe. *)

  val cardinal : t -> int
  (** Number of elements. O(1). *)
end
