(* Packed integer coordinates and allocation-light containers keyed by
   them.  See DESIGN.md, "Packed coordinates and executor invariants". *)

module Coord = struct
  let col_bits = 31
  let col_mask = (1 lsl col_bits) - 1 (* 0x7fffffff *)
  let col_bias = 1 lsl (col_bits - 1) (* 0x40000000 *)
  let bound = 1 lsl 29

  let pack r c = (r lsl col_bits) lor ((c + col_bias) land col_mask)
  let row k = k asr col_bits
  let col k = (k land col_mask) - col_bias
  let in_range r c = r > -bound && r < bound && c > -bound && c < bound

  (* With the column biased into [0, 2^31), adding or subtracting 1 moves
     one column and adding or subtracting [row_step] moves one row, with
     no carry across the row/column boundary anywhere inside the valid
     range.  This is what lets the executors probe the four grid
     neighbours with plain integer arithmetic. *)
  let row_step = 1 lsl col_bits
  let north k = k - row_step
  let south k = k + row_step
  let west k = k - 1
  let east k = k + 1
end

module Box = struct
  (* A dense row-major box of cells: [cells.((r - row0) * cols + c - col0)]
     holds the value at (r, c), -1 when unset.  It only grows, and only
     to cover cells that fall outside it. *)

  type t = {
    mutable cells : int array;
    mutable row0 : int;
    mutable col0 : int;
    mutable rows : int;
    mutable cols : int;
  }

  let create () = { cells = [||]; row0 = 0; col0 = 0; rows = 0; cols = 0 }

  let find t k =
    let i = Coord.row k - t.row0 and j = Coord.col k - t.col0 in
    if i >= 0 && i < t.rows && j >= 0 && j < t.cols then
      Array.unsafe_get t.cells ((i * t.cols) + j)
    else -1

  (* Grow to cover rows [rlo, rhi] and columns [clo, chi].  An empty box
     takes exactly that range.  Otherwise every side that must move moves
     by at least the box's extent along it, so a box that grows a cell at
     a time doubles, and copying stays O(1) amortized per cell. *)
  let cover_range t rlo rhi clo chi =
    let rend = t.row0 + t.rows and cend = t.col0 + t.cols in
    if t.rows = 0 || rlo < t.row0 || rhi >= rend || clo < t.col0 || chi >= cend then begin
      let row0, rend', col0, cend' =
        if t.rows = 0 then (rlo, rhi + 1, clo, chi + 1)
        else
          ( (if rlo < t.row0 then min rlo (t.row0 - t.rows) else t.row0),
            (if rhi >= rend then max (rhi + 1) (rend + t.rows) else rend),
            (if clo < t.col0 then min clo (t.col0 - t.cols) else t.col0),
            if chi >= cend then max (chi + 1) (cend + t.cols) else cend )
      in
      let rows = rend' - row0 and cols = cend' - col0 in
      let cells = Array.make (rows * cols) (-1) in
      (* The old box lands row by row inside the new one. *)
      for i = 0 to t.rows - 1 do
        Array.blit t.cells (i * t.cols) cells
          (((t.row0 + i - row0) * cols) + t.col0 - col0)
          t.cols
      done;
      t.cells <- cells;
      t.row0 <- row0;
      t.col0 <- col0;
      t.rows <- rows;
      t.cols <- cols
    end

  let cover t lo hi =
    cover_range t (Coord.row lo) (Coord.row hi) (Coord.col lo) (Coord.col hi)

  let set t k v =
    let r = Coord.row k and c = Coord.col k in
    cover_range t r r c c;
    t.cells.(((r - t.row0) * t.cols) + c - t.col0) <- v

  let iter t ~f =
    for i = 0 to t.rows - 1 do
      for j = 0 to t.cols - 1 do
        let v = t.cells.((i * t.cols) + j) in
        if v >= 0 then f (Coord.pack (t.row0 + i) (t.col0 + j)) v
      done
    done
end

module Set = struct
  type t = { bits : Bytes.t; mutable count : int }

  let create n = { bits = Bytes.make (max n 1) '\000'; count = 0 }
  let mem t i = Bytes.get t.bits i <> '\000'
  let cardinal t = t.count

  let add t i =
    if Bytes.get t.bits i = '\000' then begin
      Bytes.set t.bits i '\001';
      t.count <- t.count + 1
    end
end
