module V = Models.View
module Coord = Grid_graph.Packed.Coord
module Box = Grid_graph.Packed.Box
module Dyn_graph = Grid_graph.Dyn_graph

(* A frame stores its cells at (row, col * orient): [reflect] flips
   [orient] instead of rekeying, and every entry point converts frame
   columns to stored ones and back.  [cells] is a dense box over the
   stored cells, grown geometrically; the bounding box [row_lo ..
   col_hi] is exact ([row_hi < row_lo] while the frame is empty). *)
type frame_state = {
  fid : int;
  cells : Box.t;  (* packed stored coords -> handle *)
  mutable orient : int;  (* +1 or -1 *)
  mutable row_lo : int;
  mutable row_hi : int;
  mutable col_lo : int;
  mutable col_hi : int;
  mutable alive : bool;
}

type frame = frame_state

type t = {
  palette : int;
  n_total : int;
  radius : int;
  region : Dyn_graph.t;
  mutable coords : int array;  (* handle -> current packed stored coords *)
  mutable frame_ids : int array;  (* handle -> current frame id *)
  mutable revealed_step : int array;  (* handle -> step at which it appeared *)
  mutable outputs : int array;  (* handle -> color; -1 = none *)
  mutable presented : Bytes.t;  (* handle set *)
  mutable by_fid : frame_state array;  (* fid -> frame, for fid < next_fid *)
  mutable next_fid : int;
  instance : Models.Algorithm.instance Lazy.t ref;
  view : V.t;  (* the accessors; a step copies them with its own fields *)
  mutable targets : int list;  (* reverse presentation order *)
  mutable steps : int;
  mutable first_violation : Models.Run_stats.violation option;
}

(* The frame column of a handle. *)
let frame_col t h = t.by_fid.(t.frame_ids.(h)).orient * Coord.col t.coords.(h)

let output_opt t h = let c = t.outputs.(h) in if c < 0 then None else Some c

let create ~palette ~n_total ~radius ~algorithm () =
  let rec t =
    {
      palette;
      n_total;
      radius;
      region = Dyn_graph.create ();
      coords = Array.make 64 0;
      frame_ids = Array.make 64 (-1);
      revealed_step = Array.make 64 (-1);
      outputs = Array.make 64 (-1);
      presented = Bytes.make 64 '\000';
      by_fid = [||];
      next_fid = 0;
      instance = ref (lazy (fun _ -> 0));
      view =
        {
          V.n_total;
          palette;
          node_count = (fun () -> Dyn_graph.n t.region);
          neighbors = (fun h -> Dyn_graph.neighbors t.region h);
          iter_neighbors =
            (fun h f ->
              for i = 0 to Dyn_graph.degree t.region h - 1 do
                f (Dyn_graph.neighbor t.region h i)
              done);
          mem_edge = (fun a b -> Dyn_graph.mem_edge t.region a b);
          id = (fun h -> h + 1);
          output = (fun h -> output_opt t h);
          hint =
            (fun h ->
              Some
                (V.Grid_pos
                   {
                     frame = t.frame_ids.(h);
                     row = Coord.row t.coords.(h);
                     col = frame_col t h;
                   }));
          target = -1;
          new_nodes = [];
          step = 0;
        };
      targets = [];
      steps = 0;
      first_violation = None;
    }
  in
  let oracle = None in
  t.instance :=
    lazy (algorithm.Models.Algorithm.instantiate ~n:n_total ~palette ~oracle);
  t

let new_frame t =
  let f =
    {
      fid = t.next_fid;
      cells = Box.create ();
      orient = 1;
      row_lo = max_int;
      row_hi = min_int;
      col_lo = max_int;
      col_hi = min_int;
      alive = true;
    }
  in
  if f.fid = Array.length t.by_fid then begin
    let by_fid = Array.make (max 8 (2 * f.fid)) f in
    Array.blit t.by_fid 0 by_fid 0 f.fid;
    t.by_fid <- by_fid
  end;
  t.by_fid.(f.fid) <- f;
  t.next_fid <- t.next_fid + 1;
  f

let grow t needed =
  let cap = Array.length t.coords in
  if needed > cap then begin
    let cap' = max needed (2 * cap) in
    let coords = Array.make cap' 0
    and frame_ids = Array.make cap' (-1)
    and revealed_step = Array.make cap' (-1)
    and outputs = Array.make cap' (-1)
    and presented = Bytes.make cap' '\000' in
    Array.blit t.coords 0 coords 0 cap;
    Array.blit t.frame_ids 0 frame_ids 0 cap;
    Array.blit t.revealed_step 0 revealed_step 0 cap;
    Array.blit t.outputs 0 outputs 0 cap;
    Bytes.blit t.presented 0 presented 0 cap;
    t.coords <- coords;
    t.frame_ids <- frame_ids;
    t.revealed_step <- revealed_step;
    t.outputs <- outputs;
    t.presented <- presented
  end

let check_alive f op =
  if not f.alive then invalid_arg ("Virtual_grid: frame used after merge in " ^ op)

let is_empty f = f.row_hi < f.row_lo

let handle_at _t f ~row ~col =
  if Coord.in_range row col then
    let h = Box.find f.cells (Coord.pack row (f.orient * col)) in
    if h < 0 then None else Some h
  else None

let color_at t f ~row ~col =
  match handle_at t f ~row ~col with
  | None -> None
  | Some h -> output_opt t h

(* [k] is a packed stored coordinate already checked in range by the
   caller; an unrevealed cell gets the next handle. *)
let reveal_cell t f k =
  if Box.find f.cells k < 0 then begin
    let h = Dyn_graph.add_node t.region in
    grow t (h + 1);
    t.coords.(h) <- k;
    t.frame_ids.(h) <- f.fid;
    t.revealed_step.(h) <- t.steps;
    Box.set f.cells k h;
    let r = Coord.row k and c = Coord.col k in
    if r < f.row_lo then f.row_lo <- r;
    if r > f.row_hi then f.row_hi <- r;
    if c < f.col_lo then f.col_lo <- c;
    if c > f.col_hi then f.col_hi <- c
  end

let presented_at t f k =
  let h = Box.find f.cells k in
  h >= 0 && Bytes.get t.presented h <> '\000'

(* Reveal B(v, R) around the stored key [base], in the diamond's
   row-major frame order (row offset, then column offset).  If a grid
   neighbour u of v is presented, B(u, R) is already revealed — merges
   and reflections move frames rigidly — so only the far rim
   B(v, R) \ B(u, R) can hold fresh cells: the cells at distance R
   whose offset (dr, dc) points away from u's offset (er, ec),
   dr * er + dc * ec <= 0.  Skipping the rest leaves the fresh set and
   its order as the full diamond's.  The frame's box grows once, to the
   diamond's bounding box, before any cell is revealed. *)
let reveal_ball t f base =
  let r = t.radius and o = f.orient in
  Box.cover f.cells (base - (r * Coord.row_step) - r) (base + (r * Coord.row_step) + r);
  let er, ec =
    if r = 0 then (0, 0)
    else if presented_at t f (Coord.north base) then (-1, 0)
    else if presented_at t f (Coord.south base) then (1, 0)
    else if presented_at t f (base - o) then (0, -1)
    else if presented_at t f (base + o) then (0, 1)
    else (0, 0)
  in
  for dr = -r to r do
    let budget = r - abs dr in
    let row_base = base + (dr * Coord.row_step) in
    if er = 0 && ec = 0 then
      for dc = -budget to budget do
        reveal_cell t f (row_base + (o * dc))
      done
    else begin
      if (dr * er) - (budget * ec) <= 0 then reveal_cell t f (row_base - (o * budget));
      if budget > 0 && (dr * er) + (budget * ec) <= 0 then
        reveal_cell t f (row_base + (o * budget))
    end
  done

let wire t f h k =
  let h' = Box.find f.cells k in
  if h' >= 0 then Dyn_graph.add_edge t.region h h'

let present t f ~row ~col =
  check_alive f "present";
  (* One range check per presentation covers the whole diamond plus the
     one-step neighbor probes below; packing stays carry-free throughout. *)
  if
    not
      (Coord.in_range (row - t.radius) (col - t.radius)
      && Coord.in_range (row + t.radius) (col + t.radius))
  then invalid_arg "Virtual_grid.present: coordinates outside packable range";
  let o = f.orient in
  let base = Coord.pack row (o * col) in
  if presented_at t f base then
    raise
      (Models.Run_stats.Dishonest_transcript
         "Virtual_grid.present: node already presented");
  t.steps <- t.steps + 1;
  let first = Dyn_graph.n t.region in
  reveal_ball t f base;
  let fresh_end = Dyn_graph.n t.region in
  (* Fresh handles are [first, fresh_end), in reveal order.  Each
     connects to every already-revealed grid neighbor.  Probe order
     north, south, west, east (in frame orientation) orders the
     neighbors that share a bucket of the region graph (see
     dyn_graph.mli), which algorithms observe — do not reorder. *)
  for h = first to fresh_end - 1 do
    let k = t.coords.(h) in
    wire t f h (Coord.north k);
    wire t f h (Coord.south k);
    wire t f h (k - o);
    wire t f h (k + o)
  done;
  let new_nodes = List.init (fresh_end - first) (fun i -> first + i) in
  let target = Box.find f.cells base in
  assert (target >= 0);
  Bytes.set t.presented target '\001';
  t.targets <- target :: t.targets;
  if Obs.Trace.on () then
    Obs.Trace.emit
      (Obs.Trace.Step
         { executor = "virtual_grid"; step = t.steps; target; revealed = fresh_end });
  let color =
    match (Lazy.force !(t.instance)) { t.view with target; new_nodes; step = t.steps } with
    | c -> c
    | exception ((Stack_overflow | Out_of_memory | Sys.Break) as e) -> raise e
    | exception exn ->
        let backtrace = Printexc.get_backtrace () in
        if t.first_violation = None then
          t.first_violation <-
            Some
              (Models.Run_stats.Algorithm_failure
                 { node = target; message = Printexc.to_string exn; backtrace });
        -1
  in
  if color < 0 || color >= t.palette then begin
    if t.first_violation = None then
      t.first_violation <-
        Some (Models.Run_stats.Palette_overflow { node = target; color })
  end
  else begin
    t.outputs.(target) <- color;
    if t.first_violation = None then begin
      (* The certificate names the last same-colored neighbor in
         [neighbors] order. *)
      let i = ref (Dyn_graph.degree t.region target - 1) in
      while !i >= 0 && t.outputs.(Dyn_graph.neighbor t.region target !i) <> color do
        decr i
      done;
      if !i >= 0 then
        t.first_violation <-
          Some
            (Models.Run_stats.Monochromatic_edge
               (target, Dyn_graph.neighbor t.region target !i))
    end
  end;
  color

let reflect _t f =
  check_alive f "reflect";
  f.orient <- -f.orient

let merge t ~keep ~absorb ~reflect:refl ~dr ~dc =
  check_alive keep "merge";
  check_alive absorb "merge";
  if keep.fid = absorb.fid then invalid_arg "Virtual_grid.merge: same frame";
  if not (is_empty absorb) then begin
    (* Stored (r, c) of [absorb] lands at stored (r + dr, sign * c + shift)
       of [keep]. *)
    let sign = keep.orient * absorb.orient * if refl then -1 else 1 in
    let shift = keep.orient * dc in
    let row_lo = absorb.row_lo + dr and row_hi = absorb.row_hi + dr in
    let col_lo = if sign > 0 then absorb.col_lo + shift else shift - absorb.col_hi in
    let col_hi = if sign > 0 then absorb.col_hi + shift else shift - absorb.col_lo in
    if not (Coord.in_range row_lo col_lo && Coord.in_range row_hi col_hi) then
      invalid_arg "Virtual_grid.merge: placement outside packable range";
    let map k = Coord.pack (Coord.row k + dr) ((sign * Coord.col k) + shift) in
    (* The committed placement must not contradict any view already
       shown: no collisions and no adjacencies between the two revealed
       regions.  Boxes two or more cells apart cannot touch. *)
    if
      not
        (is_empty keep
        || row_lo > keep.row_hi + 1
        || row_hi < keep.row_lo - 1
        || col_lo > keep.col_hi + 1
        || col_hi < keep.col_lo - 1)
    then
      Box.iter absorb.cells ~f:(fun k _ ->
          let m = map k in
          if
            Box.find keep.cells m >= 0
            || Box.find keep.cells (Coord.north m) >= 0
            || Box.find keep.cells (Coord.south m) >= 0
            || Box.find keep.cells (Coord.west m) >= 0
            || Box.find keep.cells (Coord.east m) >= 0
          then
            invalid_arg
              "Virtual_grid.merge: placement collides with or touches the kept region");
    (* Grow the kept box once to the placement, then copy row by row. *)
    Box.cover keep.cells (Coord.pack row_lo col_lo) (Coord.pack row_hi col_hi);
    Box.iter absorb.cells ~f:(fun k h ->
        let m = map k in
        Box.set keep.cells m h;
        t.coords.(h) <- m;
        t.frame_ids.(h) <- keep.fid);
    keep.row_lo <- min keep.row_lo row_lo;
    keep.row_hi <- max keep.row_hi row_hi;
    keep.col_lo <- min keep.col_lo col_lo;
    keep.col_hi <- max keep.col_hi col_hi
  end;
  absorb.alive <- false

let frames t =
  List.filter (fun f -> f.alive) (Array.to_list (Array.sub t.by_fid 0 t.next_fid))

let span _t f =
  check_alive f "span";
  if is_empty f then ((max_int, min_int), (max_int, min_int))
  else if f.orient > 0 then ((f.row_lo, f.row_hi), (f.col_lo, f.col_hi))
  else ((f.row_lo, f.row_hi), (-f.col_hi, -f.col_lo))

let violation t = t.first_violation
let presented_count t = t.steps
let revealed_count t = Dyn_graph.n t.region
let snapshot_region t = Dyn_graph.snapshot t.region
let output t h = output_opt t h

(* Neighbors are read by index, in [neighbors] order, so the reported
   pair is the first in handle order and then in that order. *)
let scan_monochromatic t =
  let found = ref None in
  let count = Dyn_graph.n t.region in
  (try
     for h = 0 to count - 1 do
       let c = t.outputs.(h) in
       if c >= 0 then
         for i = 0 to Dyn_graph.degree t.region h - 1 do
           let h' = Dyn_graph.neighbor t.region h i in
           if h' > h && t.outputs.(h') = c then begin
             found := Some (h, h');
             raise Exit
           end
         done
     done
   with Exit -> ());
  !found

let neighbors4 (r, c) = [ (r - 1, c); (r + 1, c); (r, c - 1); (r, c + 1) ]

let validate_placement t =
  let count = Dyn_graph.n t.region in
  let live = frames t in
  (* Absolute coordinates: surviving frames are placed far apart. *)
  let (_, (glo, ghi)) =
    List.fold_left
      (fun ((rl, rh), (cl, ch)) f ->
        if is_empty f then ((rl, rh), (cl, ch))
        else
          let (rl', rh'), (cl', ch') = span t f in
          ((min rl rl', max rh rh'), (min cl cl', max ch ch')))
      ((0, 0), (0, 0))
      live
  in
  let big = 4 * (ghi - glo + 2 * t.radius + 10) in
  let offset_of_fid = Hashtbl.create 8 in
  List.iteri (fun i f -> Hashtbl.replace offset_of_fid f.fid (i * big)) live;
  let abs_coords h =
    (Coord.row t.coords.(h), frame_col t h + Hashtbl.find offset_of_fid t.frame_ids.(h))
  in
  let by_coord = Hashtbl.create (count * 2 + 1) in
  for h = 0 to count - 1 do
    let coord = abs_coords h in
    if Hashtbl.mem by_coord coord then
      raise
        (Models.Run_stats.Dishonest_transcript "validate: two nodes share a position");
    Hashtbl.replace by_coord coord h
  done;
  (* (a) Region edges = grid adjacency. *)
  for h = 0 to count - 1 do
    let expected =
      List.filter_map (fun coord -> Hashtbl.find_opt by_coord coord)
        (neighbors4 (abs_coords h))
      |> List.sort compare
    in
    let actual = List.sort compare (Dyn_graph.neighbors t.region h) in
    if expected <> actual then
      raise
        (Models.Run_stats.Dishonest_transcript
           (Printf.sprintf
              "validate: node %d has wrong adjacency under final placement" h))
  done;
  (* (b) Every presentation's whole ball is revealed under the final
     placement, and every node appeared exactly at the first
     presentation whose ball contains it, never earlier, never later. *)
  let first = Array.make count max_int in
  List.iteri
    (fun i tgt ->
      let step = i + 1 and tr, tc = abs_coords tgt in
      for r = tr - t.radius to tr + t.radius do
        let budget = t.radius - abs (r - tr) in
        for c = tc - budget to tc + budget do
          match Hashtbl.find_opt by_coord (r, c) with
          | Some h -> if step < first.(h) then first.(h) <- step
          | None ->
              raise
                (Models.Run_stats.Dishonest_transcript
                   (Printf.sprintf "validate: step %d's ball misses cell (%d,%d)" step
                      r c))
        done
      done)
    (List.rev t.targets);
  for h = 0 to count - 1 do
    if first.(h) <> t.revealed_step.(h) then
      raise
        (Models.Run_stats.Dishonest_transcript
           (Printf.sprintf
              "validate: node %d revealed at step %d but first containing ball is step %d"
              h t.revealed_step.(h) first.(h)))
  done

let validate t =
  match validate_placement t with
  | () ->
      if Obs.Trace.on () then
        Obs.Trace.emit
          (Obs.Trace.Audit { executor = "virtual_grid"; ok = true; detail = "" })
  | exception (Models.Run_stats.Dishonest_transcript msg as e) ->
      if Obs.Trace.on () then
        Obs.Trace.emit
          (Obs.Trace.Audit { executor = "virtual_grid"; ok = false; detail = msg });
      raise e
