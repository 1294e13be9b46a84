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
  let unpack k = (row k, col k)
  let in_range r c = r > -bound && r < bound && c > -bound && c < bound

  let pack_checked r c =
    if not (in_range r c) then invalid_arg "Packed.Coord.pack_checked: out of range";
    pack r c

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

module Table = struct
  (* Open-addressing int -> int hash table with linear probing.  No
     deletion (the executors only ever add bindings); [clear] recycles
     the arrays.  Capacity is a power of two and load is kept under
     50%. *)

  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable mask : int;
    mutable count : int;
  }

  (* [min_int] has all of bits 62..31 set as a row and is outside
     [Coord]'s valid range, so it can never be produced by [pack] on an
     in-range coordinate. *)
  let empty_key = min_int

  let create ?(capacity = 16) () =
    let cap = ref 16 in
    while !cap < capacity * 2 do
      cap := !cap * 2
    done;
    {
      keys = Array.make !cap empty_key;
      vals = Array.make !cap 0;
      mask = !cap - 1;
      count = 0;
    }

  let length t = t.count

  let slot t k =
    let h = k * 0x2545F4914F6CDD1D in
    let h = h lxor (h lsr 31) in
    let i = ref (h land t.mask) in
    while
      let k' = t.keys.(!i) in
      k' <> empty_key && k' <> k
    do
      i := (!i + 1) land t.mask
    done;
    !i

  let grow t =
    let old_keys = t.keys and old_vals = t.vals in
    let cap = (t.mask + 1) * 2 in
    t.keys <- Array.make cap empty_key;
    t.vals <- Array.make cap 0;
    t.mask <- cap - 1;
    Array.iteri
      (fun i k ->
        if k <> empty_key then begin
          let j = slot t k in
          t.keys.(j) <- k;
          t.vals.(j) <- old_vals.(i)
        end)
      old_keys

  let set t k v =
    let i = slot t k in
    if t.keys.(i) = empty_key then begin
      t.keys.(i) <- k;
      t.vals.(i) <- v;
      t.count <- t.count + 1;
      if t.count * 2 > t.mask then grow t
    end
    else t.vals.(i) <- v

  let mem t k = t.keys.(slot t k) <> empty_key

  let find_default t k ~default =
    let i = slot t k in
    if t.keys.(i) = empty_key then default else t.vals.(i)

  let find_opt t k =
    let i = slot t k in
    if t.keys.(i) = empty_key then None else Some t.vals.(i)

  let fold t ~init ~f =
    let acc = ref init in
    Array.iteri
      (fun i k -> if k <> empty_key then acc := f !acc k t.vals.(i))
      t.keys;
    !acc

  let iter t ~f =
    Array.iteri (fun i k -> if k <> empty_key then f k t.vals.(i)) t.keys

  let clear t =
    Array.fill t.keys 0 (Array.length t.keys) empty_key;
    t.count <- 0
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
