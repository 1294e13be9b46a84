module V = Models.View
module Coord = Grid_graph.Packed.Coord
module Ptable = Grid_graph.Packed.Table

type frame_state = {
  fid : int;
  table : Ptable.t;  (* packed frame coords -> handle *)
  mutable alive : bool;
}

type frame = frame_state

type t = {
  palette : int;
  n_total : int;
  radius : int;
  region : Grid_graph.Dyn_graph.t;
  mutable coords : int array;  (* handle -> current packed frame coords *)
  mutable frame_ids : int array;  (* handle -> current frame id *)
  mutable revealed_step : int array;  (* handle -> step at which it appeared *)
  mutable outputs : int array;  (* handle -> color; -1 = none *)
  mutable presented : Bytes.t;  (* handle set *)
  frames : (int, frame_state) Hashtbl.t;
  mutable next_fid : int;
  instance : Models.Algorithm.instance Lazy.t ref;
  mutable targets : int list;  (* reverse presentation order *)
  mutable steps : int;
  mutable first_violation : Models.Run_stats.violation option;
}

let create ~palette ~n_total ~radius ~algorithm () =
  let t =
    {
      palette;
      n_total;
      radius;
      region = Grid_graph.Dyn_graph.create ();
      coords = Array.make 64 0;
      frame_ids = Array.make 64 (-1);
      revealed_step = Array.make 64 (-1);
      outputs = Array.make 64 (-1);
      presented = Bytes.make 64 '\000';
      frames = Hashtbl.create 8;
      next_fid = 0;
      instance = ref (lazy (fun _ -> 0));
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
  let f = { fid = t.next_fid; table = Ptable.create (); alive = true } in
  t.next_fid <- t.next_fid + 1;
  Hashtbl.replace t.frames f.fid f;
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

let handle_at _t f ~row ~col =
  if Coord.in_range row col then Ptable.find_opt f.table (Coord.pack row col)
  else None

let output_opt t h = let c = t.outputs.(h) in if c < 0 then None else Some c

let color_at t f ~row ~col =
  match handle_at t f ~row ~col with
  | None -> None
  | Some h -> output_opt t h

(* [k] is a packed coordinate already checked in range by the caller. *)
let reveal_node t f k =
  let h = Ptable.find_default f.table k ~default:(-1) in
  if h >= 0 then (h, false)
  else begin
    let h = Grid_graph.Dyn_graph.add_node t.region in
    grow t (h + 1);
    t.coords.(h) <- k;
    t.frame_ids.(h) <- f.fid;
    t.revealed_step.(h) <- t.steps;
    Ptable.set f.table k h;
    (h, true)
  end

let neighbors4 (r, c) = [ (r - 1, c); (r + 1, c); (r, c - 1); (r, c + 1) ]

let make_view t ~target ~new_nodes =
  {
    V.n_total = t.n_total;
    palette = t.palette;
    node_count = (fun () -> Grid_graph.Dyn_graph.n t.region);
    neighbors = (fun h -> Grid_graph.Dyn_graph.neighbors t.region h);
    mem_edge = (fun a b -> Grid_graph.Dyn_graph.mem_edge t.region a b);
    id = (fun h -> h + 1);
    output = (fun h -> output_opt t h);
    hint =
      (fun h ->
        let k = t.coords.(h) in
        Some (V.Grid_pos { frame = t.frame_ids.(h); row = Coord.row k; col = Coord.col k }));
    target;
    new_nodes;
    step = t.steps;
  }

let present t f ~row ~col =
  check_alive f "present";
  (* One range check per presentation covers the whole diamond plus the
     one-step neighbor probes below; packing stays carry-free throughout. *)
  if
    not
      (Coord.in_range (row - t.radius) (col - t.radius)
      && Coord.in_range (row + t.radius) (col + t.radius))
  then invalid_arg "Virtual_grid.present: coordinates outside packable range";
  let base = Coord.pack row col in
  (match Ptable.find_default f.table base ~default:(-1) with
  | h when h >= 0 && Bytes.get t.presented h <> '\000' ->
      raise
        (Models.Run_stats.Dishonest_transcript
           "Virtual_grid.present: node already presented")
  | _ -> ());
  t.steps <- t.steps + 1;
  (* Reveal the radius-R diamond around the node. *)
  let fresh = ref [] in
  for dr = -t.radius to t.radius do
    let budget = t.radius - abs dr in
    let row_base = base + (dr * Coord.row_step) in
    for dc = -budget to budget do
      let h, is_new = reveal_node t f (row_base + dc) in
      if is_new then fresh := h :: !fresh
    done
  done;
  let new_nodes = List.sort compare !fresh in
  (* Each fresh node connects to every already-revealed grid neighbor.
     Probe order north, south, west, east orders the neighbors that
     share a bucket of the region graph (see dyn_graph.mli), which
     algorithms observe — do not reorder. *)
  List.iter
    (fun h ->
      let k = t.coords.(h) in
      let probe k' =
        let h' = Ptable.find_default f.table k' ~default:(-1) in
        if h' >= 0 then Grid_graph.Dyn_graph.add_edge t.region h h'
      in
      probe (Coord.north k);
      probe (Coord.south k);
      probe (Coord.west k);
      probe (Coord.east k))
    new_nodes;
  let target =
    match Ptable.find_default f.table base ~default:(-1) with
    | -1 -> assert false
    | h -> h
  in
  Bytes.set t.presented target '\001';
  t.targets <- target :: t.targets;
  if Obs.Trace.on () then begin
    Obs.Trace.emit
      (Obs.Trace.Reveal
         {
           executor = "virtual_grid";
           step = t.steps;
           fresh = List.length new_nodes;
           revealed = Grid_graph.Dyn_graph.n t.region;
         });
    Obs.Trace.emit
      (Obs.Trace.Step
         {
           executor = "virtual_grid";
           step = t.steps;
           target;
           revealed = Grid_graph.Dyn_graph.n t.region;
           (* the virtual grid has one growing region, so the revealed
              count is also the largest view so far *)
           max_view = Grid_graph.Dyn_graph.n t.region;
         })
  end;
  let color =
    match (Lazy.force !(t.instance)) (make_view t ~target ~new_nodes) with
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
    if t.first_violation = None then
      List.iter
        (fun h ->
          if t.outputs.(h) = color then
            t.first_violation <- Some (Models.Run_stats.Monochromatic_edge (target, h)))
        (Grid_graph.Dyn_graph.neighbors t.region target)
  end;
  color

let reflect t f =
  check_alive f "reflect";
  let entries = Ptable.fold f.table ~init:[] ~f:(fun acc k h -> (k, h) :: acc) in
  Ptable.clear f.table;
  List.iter
    (fun (k, h) ->
      let k' = Coord.pack (Coord.row k) (- Coord.col k) in
      Ptable.set f.table k' h;
      t.coords.(h) <- k')
    entries

let merge t ~keep ~absorb ~reflect:refl ~dr ~dc =
  check_alive keep "merge";
  check_alive absorb "merge";
  if keep.fid = absorb.fid then invalid_arg "Virtual_grid.merge: same frame";
  let map k =
    let r = Coord.row k + dr in
    let c = (if refl then - Coord.col k else Coord.col k) + dc in
    if not (Coord.in_range r c) then
      invalid_arg "Virtual_grid.merge: placement outside packable range";
    Coord.pack r c
  in
  let entries = Ptable.fold absorb.table ~init:[] ~f:(fun acc k h -> (k, h) :: acc) in
  (* The committed placement must not contradict any view already shown:
     no collisions and no adjacencies between the two revealed regions. *)
  List.iter
    (fun (k, _) ->
      let m = map k in
      List.iter
        (fun probe ->
          if Ptable.mem keep.table probe then
            invalid_arg
              "Virtual_grid.merge: placement collides with or touches the kept region")
        [ m; Coord.north m; Coord.south m; Coord.west m; Coord.east m ])
    entries;
  List.iter
    (fun (k, h) ->
      let m = map k in
      Ptable.set keep.table m h;
      t.coords.(h) <- m;
      t.frame_ids.(h) <- keep.fid)
    entries;
  absorb.alive <- false;
  Hashtbl.remove t.frames absorb.fid

let frames t =
  Hashtbl.fold (fun _ f acc -> f :: acc) t.frames []
  |> List.sort (fun a b -> compare a.fid b.fid)

let span _t f =
  check_alive f "span";
  let row_lo = ref max_int and row_hi = ref min_int in
  let col_lo = ref max_int and col_hi = ref min_int in
  Ptable.iter f.table ~f:(fun k _ ->
      let r = Coord.row k and c = Coord.col k in
      row_lo := min !row_lo r;
      row_hi := max !row_hi r;
      col_lo := min !col_lo c;
      col_hi := max !col_hi c);
  ((!row_lo, !row_hi), (!col_lo, !col_hi))

let violation t = t.first_violation
let presented_count t = t.steps
let revealed_count t = Grid_graph.Dyn_graph.n t.region
let snapshot_region t = Grid_graph.Dyn_graph.snapshot t.region
let output t h = output_opt t h

let scan_monochromatic t =
  let found = ref None in
  let count = Grid_graph.Dyn_graph.n t.region in
  (try
     for h = 0 to count - 1 do
       match output_opt t h with
       | None -> ()
       | Some c ->
           List.iter
             (fun h' ->
               if h' > h && t.outputs.(h') = c then begin
                 found := Some (h, h');
                 raise Exit
               end)
             (Grid_graph.Dyn_graph.neighbors t.region h)
     done
   with Exit -> ());
  !found

let validate_placement t =
  let count = Grid_graph.Dyn_graph.n t.region in
  (* Absolute coordinates: surviving frames are placed far apart. *)
  let (_, (glo, ghi)) =
    Hashtbl.fold
      (fun _ f ((rl, rh), (cl, ch)) ->
        if Ptable.length f.table = 0 then ((rl, rh), (cl, ch))
        else
          let (rl', rh'), (cl', ch') = span t f in
          ((min rl rl', max rh rh'), (min cl cl', max ch ch')))
      t.frames
      ((0, 0), (0, 0))
  in
  let big = 4 * (ghi - glo + 2 * t.radius + 10) in
  let offset_of_fid = Hashtbl.create 8 in
  let next = ref 0 in
  Hashtbl.iter
    (fun fid _ ->
      Hashtbl.replace offset_of_fid fid (!next * big);
      incr next)
    t.frames;
  let abs_coords h =
    let k = t.coords.(h) in
    (Coord.row k, Coord.col k + Hashtbl.find offset_of_fid t.frame_ids.(h))
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
    let actual = List.sort compare (Grid_graph.Dyn_graph.neighbors t.region h) in
    if expected <> actual then
      raise
        (Models.Run_stats.Dishonest_transcript
           (Printf.sprintf
              "validate: node %d has wrong adjacency under final placement" h))
  done;
  (* (b) Every node appeared exactly at the first presentation whose ball
     contains it under the final placement. *)
  let targets = Array.of_list (List.rev t.targets) in
  for h = 0 to count - 1 do
    let hr, hc = abs_coords h in
    let first = ref max_int in
    Array.iteri
      (fun j tgt ->
        let tr, tc = abs_coords tgt in
        if abs (hr - tr) + abs (hc - tc) <= t.radius then first := min !first (j + 1))
      targets;
    if !first <> t.revealed_step.(h) then
      raise
        (Models.Run_stats.Dishonest_transcript
           (Printf.sprintf
              "validate: node %d revealed at step %d but first containing ball is step %d"
              h t.revealed_step.(h) !first))
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

let bipartition_oracle t =
  let query _view handles =
    let raw =
      Array.of_list
        (List.map
           (fun h ->
             let k = t.coords.(h) in
             ((Coord.row k + Coord.col k) mod 2 + 2) mod 2)
           handles)
    in
    Models.Oracle.canonicalize raw handles
  in
  { Models.Oracle.parts = 2; radius = 0; query }
