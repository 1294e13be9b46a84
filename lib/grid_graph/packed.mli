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
  (** [pack r c] packs without a range check — O(1), hot path.  Callers
      that can leave the valid range check it with {!in_range} first. *)

  val row : int -> int
  (** Row of a packed key. *)

  val col : int -> int
  (** Column of a packed key. *)

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

module Box : sig
  (** A dense row-major box of non-negative [int] values keyed by packed
      coordinates: one [int array] with an origin and dimensions, in
      which [-1] marks an unset cell.

      An empty box allocates nothing.  It grows only to cover a cell
      outside it: the first cell or range it covers sets its extent
      exactly, and after that every side that must move moves by at
      least the box's extent along it, so a box grown one cell at a
      time doubles and each cell is copied O(1) times amortized.
      Memory is O(rows x cols of the box) — the cells' bounding box, up
      to that doubling — whatever the number of set cells.  Lookups are
      index arithmetic and allocate nothing; growing reallocates and
      copies the box row by row.  No deletion: the executors only
      accumulate bindings. *)

  type t

  val create : unit -> t
  (** An empty box. *)

  val find : t -> int -> int
  (** The value at packed key [k], or [-1] when unset or outside the
      box.  O(1), allocation-free. *)

  val set : t -> int -> int -> unit
  (** [set t k v] binds [k] to [v >= 0], replacing any previous value,
      and grows the box first if [k] falls outside it. *)

  val cover : t -> int -> int -> unit
  (** [cover t lo hi] grows the box, as {!set} would, to cover every
      cell whose row and column lie between those of the packed keys
      [lo] and [hi] (which must satisfy [row lo <= row hi] and
      [col lo <= col hi]).  Bindings are unchanged.  A caller that
      knows where a batch of cells lands grows once instead of per
      cell. *)

  val iter : t -> f:(int -> int -> unit) -> unit
  (** [iter t ~f] calls [f k v] once per binding, in row-major order of
      the keys.  O(rows x cols of the box). *)
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
