open Grid_graph

type wrap = Simple | Cylindrical | Toroidal

type t = { wrap : wrap; rows : int; cols : int; graph : Graph.t }

let wrap g = g.wrap
let rows g = g.rows
let cols g = g.cols
let graph g = g.graph

let wraps_cols = function Simple -> false | Cylindrical | Toroidal -> true
let wraps_rows = function Simple | Cylindrical -> false | Toroidal -> true

let create wrap ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Grid2d.create: nonpositive dimension";
  if wraps_cols wrap && cols < 3 then
    invalid_arg "Grid2d.create: wrapping columns needs cols >= 3";
  if wraps_rows wrap && rows < 3 then
    invalid_arg "Grid2d.create: wrapping rows needs rows >= 3";
  let id i j = (i * cols) + j in
  let arcs add =
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        if j + 1 < cols then add (id i j) (id i (j + 1));
        if i + 1 < rows then add (id i j) (id (i + 1) j)
      done;
      if wraps_cols wrap then add (id i (cols - 1)) (id i 0)
    done;
    if wraps_rows wrap then
      for j = 0 to cols - 1 do
        add (id (rows - 1) j) (id 0 j)
      done
  in
  { wrap; rows; cols; graph = Graph.build ~n:(rows * cols) arcs }

let node g ~row ~col =
  if row < 0 || row >= g.rows || col < 0 || col >= g.cols then
    invalid_arg "Grid2d.node: out of range";
  (row * g.cols) + col

let coords g v = (v / g.cols, v mod g.cols)

let row_nodes g i = List.init g.cols (fun j -> node g ~row:i ~col:j)
let col_nodes g j = List.init g.rows (fun i -> node g ~row:i ~col:j)

let row_segment g ~row ~col_lo ~col_hi =
  if col_lo > col_hi then invalid_arg "Grid2d.row_segment: empty range";
  List.init (col_hi - col_lo + 1) (fun d -> node g ~row ~col:(col_lo + d))

let col_segment g ~col ~row_lo ~row_hi =
  if row_lo > row_hi then invalid_arg "Grid2d.col_segment: empty range";
  List.init (row_hi - row_lo + 1) (fun d -> node g ~row:(row_lo + d) ~col)

let canonical_2_coloring g =
  Array.init (g.rows * g.cols) (fun v ->
      let i, j = coords g v in
      (i + j) mod 2)

(* An increment sequence for one dimension: [len] steps, each 1 or 2
   (mod 3), summing to 0 mod 3 when the dimension wraps.  The prefix sums
   give a labeling in which consecutive positions (and the wrap pair)
   always differ mod 3. *)
let increment_prefix ~len ~wraps =
  let steps = Array.make len 1 in
  if wraps then begin
    (* Make the total 0 mod 3 by upgrading (len mod 3) of the 1-steps to
       2-steps: total = len + upgrades = 0 (mod 3). *)
    let upgrades = (3 - (len mod 3)) mod 3 in
    if len < 2 && upgrades > 0 then
      invalid_arg "Grid2d.proper_3_coloring: wrapped dimension too short";
    for i = 0 to upgrades - 1 do
      steps.(i) <- 2
    done
  end;
  let prefix = Array.make len 0 in
  for i = 1 to len - 1 do
    prefix.(i) <- (prefix.(i - 1) + steps.(i - 1)) mod 3
  done;
  prefix

let proper_3_coloring g =
  let f = increment_prefix ~len:g.cols ~wraps:(wraps_cols g.wrap) in
  let gr = increment_prefix ~len:g.rows ~wraps:(wraps_rows g.wrap) in
  Array.init (g.rows * g.cols) (fun v ->
      let i, j = coords g v in
      (gr.(i) + f.(j)) mod 3)

let canonical_3_coloring g =
  let bipartite_ok =
    (not (wraps_cols g.wrap) || g.cols mod 2 = 0)
    && (not (wraps_rows g.wrap) || g.rows mod 2 = 0)
  in
  if bipartite_ok then canonical_2_coloring g
  else
    (* (i + j) mod 3 is proper whenever every wrapped dimension has size
       divisible by 3: each unit step changes the value by +-1 mod 3, and a
       wrap step changes it by -(size - 1) = +1 mod 3. *)
    let diag_ok =
      (not (wraps_cols g.wrap) || g.cols mod 3 = 0)
      && (not (wraps_rows g.wrap) || g.rows mod 3 = 0)
    in
    if diag_ok then
      Array.init (g.rows * g.cols) (fun v ->
          let i, j = coords g v in
          (i + j) mod 3)
    else invalid_arg "Grid2d.canonical_3_coloring: no canonical recipe applies"
