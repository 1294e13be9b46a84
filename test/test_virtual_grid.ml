open Online_local
module Vg = Virtual_grid
module A = Models.Algorithm

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fresh ?(radius = 1) ?(algorithm = A.greedy_first_fit) () =
  Vg.create ~palette:3 ~n_total:1_000_000 ~radius ~algorithm ()

let test_present_reveals_diamond () =
  let vg = fresh ~radius:2 () in
  let f = Vg.new_frame vg in
  ignore (Vg.present vg f ~row:0 ~col:0);
  check_int "diamond of radius 2" 13 (Vg.revealed_count vg);
  check_int "one presentation" 1 (Vg.presented_count vg);
  check_bool "center revealed" true (Vg.handle_at vg f ~row:0 ~col:0 <> None);
  check_bool "edge of diamond" true (Vg.handle_at vg f ~row:2 ~col:0 <> None);
  check_bool "outside diamond" true (Vg.handle_at vg f ~row:2 ~col:1 = None)

let test_present_twice_rejected () =
  let vg = fresh () in
  let f = Vg.new_frame vg in
  ignore (Vg.present vg f ~row:0 ~col:0);
  Alcotest.check_raises "double"
    (Models.Run_stats.Dishonest_transcript "Virtual_grid.present: node already presented")
    (fun () -> ignore (Vg.present vg f ~row:0 ~col:0))

let test_colors_recorded () =
  let vg = fresh () in
  let f = Vg.new_frame vg in
  let c = Vg.present vg f ~row:0 ~col:0 in
  Alcotest.(check (option int)) "recorded" (Some c) (Vg.color_at vg f ~row:0 ~col:0);
  Alcotest.(check (option int)) "unpresented" None (Vg.color_at vg f ~row:0 ~col:1)

let test_greedy_row_proper () =
  let vg = fresh ~radius:1 () in
  let f = Vg.new_frame vg in
  for col = 0 to 9 do
    ignore (Vg.present vg f ~row:0 ~col)
  done;
  check_bool "greedy row proper" true (Vg.violation vg = None);
  check_bool "scan clean" true (Vg.scan_monochromatic vg = None);
  Vg.validate vg

let test_merge_too_close_rejected () =
  let vg = fresh ~radius:1 () in
  let f1 = Vg.new_frame vg and f2 = Vg.new_frame vg in
  ignore (Vg.present vg f1 ~row:0 ~col:0);
  ignore (Vg.present vg f2 ~row:0 ~col:0);
  (* Regions are radius-1 diamonds; dc = 2 makes them touch (distance 0
     between (0,1) of f1 and (0,-1)+2=(0,1)... collision). *)
  Alcotest.check_raises "collision"
    (Invalid_argument "Virtual_grid.merge: placement collides with or touches the kept region")
    (fun () -> Vg.merge vg ~keep:f1 ~absorb:f2 ~reflect:false ~dr:0 ~dc:2);
  (* dc = 3 makes boundaries adjacent -> also rejected. *)
  Alcotest.check_raises "adjacency"
    (Invalid_argument "Virtual_grid.merge: placement collides with or touches the kept region")
    (fun () -> Vg.merge vg ~keep:f1 ~absorb:f2 ~reflect:false ~dr:0 ~dc:3)

let test_merge_at_gap_2_ok () =
  let vg = fresh ~radius:1 () in
  let f1 = Vg.new_frame vg and f2 = Vg.new_frame vg in
  ignore (Vg.present vg f1 ~row:0 ~col:0);
  ignore (Vg.present vg f2 ~row:0 ~col:0);
  (* Regions span cols [-1,1]; placing f2's center at col 4 leaves a gap
     of 2 columns between the regions: allowed. *)
  Vg.merge vg ~keep:f1 ~absorb:f2 ~reflect:false ~dr:0 ~dc:4;
  check_bool "merged frame holds both" true (Vg.handle_at vg f1 ~row:0 ~col:4 <> None);
  check_int "one frame left" 1 (List.length (Vg.frames vg));
  (* Connecting the two by presenting the gap nodes is now legal and
     stays honest. *)
  ignore (Vg.present vg f1 ~row:0 ~col:2);
  ignore (Vg.present vg f1 ~row:0 ~col:3);
  Vg.validate vg

let test_absorbed_frame_dies () =
  let vg = fresh () in
  let f1 = Vg.new_frame vg and f2 = Vg.new_frame vg in
  ignore (Vg.present vg f1 ~row:0 ~col:0);
  ignore (Vg.present vg f2 ~row:0 ~col:0);
  Vg.merge vg ~keep:f1 ~absorb:f2 ~reflect:false ~dr:10 ~dc:0;
  Alcotest.check_raises "dead frame"
    (Invalid_argument "Virtual_grid: frame used after merge in present") (fun () ->
      ignore (Vg.present vg f2 ~row:5 ~col:5))

let test_reflect_remaps () =
  let vg = fresh ~radius:1 () in
  let f = Vg.new_frame vg in
  ignore (Vg.present vg f ~row:0 ~col:3);
  let h = Vg.handle_at vg f ~row:0 ~col:3 in
  Vg.reflect vg f;
  check_bool "moved to -3" true (Vg.handle_at vg f ~row:0 ~col:(-3) = h);
  check_bool "old position empty" true (Vg.handle_at vg f ~row:0 ~col:3 = None);
  Vg.validate vg

let test_span () =
  let vg = fresh ~radius:2 () in
  let f = Vg.new_frame vg in
  ignore (Vg.present vg f ~row:0 ~col:0);
  ignore (Vg.present vg f ~row:0 ~col:5);
  let (rlo, rhi), (clo, chi) = Vg.span vg f in
  check_int "row lo" (-2) rlo;
  check_int "row hi" 2 rhi;
  check_int "col lo" (-2) clo;
  check_int "col hi" 7 chi

let test_validate_catches_dishonesty () =
  (* Bypass the merge guard by placing two frames exactly adjacent via a
     "legal" merge then presenting a node whose final ball would have
     contained a node of the other frame earlier.  The merge guard
     prevents direct dishonesty, so fabricate it: two frames left
     unmerged but validated as far apart always pass; instead check that
     validation fails when we deliberately corrupt the transcript by
     merging at a distance that the guard allows but that puts an OLD
     presentation's ball over the absorbed region.  With radius 1, a node
     presented at (0,0) in f1 and an f2 region placed with its boundary
     at distance exactly 2 from (0,0) is legal (ball radius 1 < 2). *)
  let vg = fresh ~radius:1 () in
  let f1 = Vg.new_frame vg and f2 = Vg.new_frame vg in
  ignore (Vg.present vg f1 ~row:0 ~col:0);
  ignore (Vg.present vg f2 ~row:0 ~col:0);
  Vg.merge vg ~keep:f1 ~absorb:f2 ~reflect:false ~dr:0 ~dc:4;
  (* Honest so far. *)
  Vg.validate vg;
  check_bool "honest transcript accepted" true true

let test_hints_follow_merges () =
  let seen_frames = ref [] in
  let probe =
    A.stateless ~name:"hint-probe" ~locality:(fun ~n:_ -> 1) (fun view ->
        (match view.Models.View.hint view.Models.View.target with
        | Some (Models.View.Grid_pos { frame; _ }) -> seen_frames := frame :: !seen_frames
        | _ -> ());
        0)
  in
  let vg = fresh ~algorithm:probe () in
  let f1 = Vg.new_frame vg and f2 = Vg.new_frame vg in
  ignore (Vg.present vg f1 ~row:0 ~col:0);
  ignore (Vg.present vg f2 ~row:0 ~col:0);
  Vg.merge vg ~keep:f1 ~absorb:f2 ~reflect:true ~dr:0 ~dc:4;
  ignore (Vg.present vg f1 ~row:0 ~col:2);
  check_int "three presentations" 3 (List.length !seen_frames);
  (* The last presentation's hint must carry the surviving frame. *)
  check_bool "distinct frames seen" true
    (List.length (List.sort_uniq compare !seen_frames) = 2)

(* Fuzz: a random but rule-abiding adversary (random presentations within
   random frames, merges at legal gaps, reflections) always produces a
   transcript that the replay validator accepts. *)
let honest_random_adversary seed =
  let state = Proptest.Rng.to_random_state (Proptest.Rng.of_seed seed) in
  let radius = 1 + Random.State.int state 3 in
  let vg = fresh ~radius () in
  (* Each live frame tracks the row-0 interval it has presented, so gaps
     can be computed; everything stays on row 0 for simplicity. *)
  let frames = ref [] in
  let new_frame () =
    let f = Vg.new_frame vg in
    ignore (Vg.present vg f ~row:0 ~col:0);
    frames := f :: !frames
  in
  new_frame ();
  for _ = 1 to 30 do
    match Random.State.int state 4 with
    | 0 -> new_frame ()
    | 1 -> (
        (* extend a random frame by presenting the next row cell. *)
        match !frames with
        | [] -> new_frame ()
        | fs ->
            let f = List.nth fs (Random.State.int state (List.length fs)) in
            let _, (_, hi) = Vg.span vg f in
            ignore (Vg.present vg f ~row:0 ~col:(hi + 1 - radius + radius)))
    | 2 -> (
        match !frames with
        | f :: _ -> Vg.reflect vg f
        | [] -> new_frame ())
    | _ -> (
        match !frames with
        | f1 :: f2 :: rest ->
            let _, (_, hi1) = Vg.span vg f1 in
            let _, (lo2, hi2) = Vg.span vg f2 in
            let gap = 2 + Random.State.int state 3 in
            let reflect = Random.State.bool state in
            (* Place the absorbed region's left edge at hi1 + gap + 1,
               accounting for the reflection of its coordinates. *)
            let dc =
              if reflect then hi1 + gap + 1 + hi2 else hi1 + gap + 1 - lo2
            in
            Vg.merge vg ~keep:f1 ~absorb:f2 ~reflect ~dr:0 ~dc;
            frames := f1 :: rest
        | _ -> new_frame ())
  done;
  Vg.validate vg

let prop_random_honest_adversary_validates =
  let name = "random honest adversary passes replay validation" in
  Alcotest.test_case name `Quick (fun () ->
      Proptest.Runner.check_exn
        ~config:{ Proptest.Runner.default_config with seed = 0x76D; cases = 30 }
        ~name ~print:string_of_int
        (Proptest.Gen.int_range 0 100_000)
        (fun seed ->
          honest_random_adversary seed;
          true))

let test_reflected_merge_then_connect () =
  (* Merge with reflection, then connect through the gap and re-validate;
     this is exactly the Lemma 3.6 concatenation shape. *)
  let vg = fresh ~radius:2 () in
  let f1 = Vg.new_frame vg and f2 = Vg.new_frame vg in
  for col = 0 to 3 do
    ignore (Vg.present vg f1 ~row:0 ~col)
  done;
  for col = 0 to 3 do
    ignore (Vg.present vg f2 ~row:0 ~col)
  done;
  (* f1 region cols [-2, 5]; place reflected f2 (region [-5, 2] after
     c -> -c) with a 2-gap: -(-5)=5... use dc so mapped lo = 8. *)
  Vg.merge vg ~keep:f1 ~absorb:f2 ~reflect:true ~dr:0 ~dc:13;
  (* mapped region = 13 - [-2..5]... wait: (r,c) -> (r, -c + 13): f2 cols
     [0..3] -> [10..13]; region [-2..5] -> [8..15]: gap of 2 from col 5. *)
  for col = 6 to 9 do
    ignore (Vg.present vg f1 ~row:0 ~col)
  done;
  Alcotest.(check bool) "no violation from an honest connect" true
    (Vg.violation vg = None);
  Vg.validate vg

(* The executor before the rim reveal, O(1) [reflect] and the frame
   boxes, kept as the model of the current one: it probes every cell of
   each diamond, rekeys a whole frame on [reflect] and [merge], and scans
   the frame table for [span].  It is verbatim except that each frame's
   table is a stdlib [Hashtbl], so the model shares no container code
   with the executor it checks, and that it traces one [Step] per
   presentation, as the executor does. *)
module Ref_vg = struct
  module V = Models.View
  module Coord = Grid_graph.Packed.Coord

  type frame_state = {
    fid : int;
    table : (int, int) Hashtbl.t;  (* packed frame coords -> handle *)
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
    let f = { fid = t.next_fid; table = Hashtbl.create 16; alive = true } in
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
    if Coord.in_range row col then Hashtbl.find_opt f.table (Coord.pack row col)
    else None

  let output_opt t h = let c = t.outputs.(h) in if c < 0 then None else Some c

  let color_at t f ~row ~col =
    match handle_at t f ~row ~col with
    | None -> None
    | Some h -> output_opt t h

  (* [k] is a packed coordinate already checked in range by the caller. *)
  let reveal_node t f k =
    let h = Option.value (Hashtbl.find_opt f.table k) ~default:(-1) in
    if h >= 0 then (h, false)
    else begin
      let h = Grid_graph.Dyn_graph.add_node t.region in
      grow t (h + 1);
      t.coords.(h) <- k;
      t.frame_ids.(h) <- f.fid;
      t.revealed_step.(h) <- t.steps;
      Hashtbl.replace f.table k h;
      (h, true)
    end

  let neighbors4 (r, c) = [ (r - 1, c); (r + 1, c); (r, c - 1); (r, c + 1) ]

  let make_view t ~target ~new_nodes =
    {
      V.n_total = t.n_total;
      palette = t.palette;
      node_count = (fun () -> Grid_graph.Dyn_graph.n t.region);
      neighbors = (fun h -> Grid_graph.Dyn_graph.neighbors t.region h);
      iter_neighbors = (fun h f -> List.iter f (Grid_graph.Dyn_graph.neighbors t.region h));
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
    (match Option.value (Hashtbl.find_opt f.table base) ~default:(-1) with
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
          let h' = Option.value (Hashtbl.find_opt f.table k') ~default:(-1) in
          if h' >= 0 then Grid_graph.Dyn_graph.add_edge t.region h h'
        in
        probe (Coord.north k);
        probe (Coord.south k);
        probe (Coord.west k);
        probe (Coord.east k))
      new_nodes;
    let target =
      match Option.value (Hashtbl.find_opt f.table base) ~default:(-1) with
      | -1 -> assert false
      | h -> h
    in
    Bytes.set t.presented target '\001';
    t.targets <- target :: t.targets;
    if Obs.Trace.on () then
      Obs.Trace.emit
        (Obs.Trace.Step
           {
             executor = "virtual_grid";
             step = t.steps;
             target;
             revealed = Grid_graph.Dyn_graph.n t.region;
           });
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
    let entries = Hashtbl.fold (fun k h acc -> (k, h) :: acc) f.table [] in
    Hashtbl.reset f.table;
    List.iter
      (fun (k, h) ->
        let k' = Coord.pack (Coord.row k) (- Coord.col k) in
        Hashtbl.replace f.table k' h;
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
    let entries = Hashtbl.fold (fun k h acc -> (k, h) :: acc) absorb.table [] in
    (* The committed placement must not contradict any view already shown:
       no collisions and no adjacencies between the two revealed regions. *)
    List.iter
      (fun (k, _) ->
        let m = map k in
        List.iter
          (fun probe ->
            if Hashtbl.mem keep.table probe then
              invalid_arg
                "Virtual_grid.merge: placement collides with or touches the kept region")
          [ m; Coord.north m; Coord.south m; Coord.west m; Coord.east m ])
      entries;
    List.iter
      (fun (k, h) ->
        let m = map k in
        Hashtbl.replace keep.table m h;
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
    Hashtbl.iter
      (fun k _ ->
        let r = Coord.row k and c = Coord.col k in
        row_lo := min !row_lo r;
        row_hi := max !row_hi r;
        col_lo := min !col_lo c;
        col_hi := max !col_hi c)
      f.table;
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
          if Hashtbl.length f.table = 0 then ((rl, rh), (cl, ch))
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
end

(* Differential test: seeded random operation sequences drive [Ref_vg]
   and [Vg] side by side, and every answer, view and error message must
   agree. *)

module V = Models.View

(* [fid] is the frame id both executors gave the pair: creation order. *)
type pair = { fid : int; rf : Ref_vg.frame; nf : Vg.frame; mutable live : bool }

let attempt f =
  match f () with
  | v -> Ok v
  | exception Invalid_argument m -> Error ("Invalid_argument: " ^ m)
  | exception Models.Run_stats.Dishonest_transcript m ->
      Error ("Dishonest_transcript: " ^ m)

(* Answers from what the view shows — the target's hint, its neighbors
   in order and their outputs — so a difference in any of them changes
   the colors.  [mode] 0 is greedy first fit, 1 colors by hint, 2 copies
   the last colored neighbor (monochromatic edges on purpose), 3 is
   greedy with an out-of-palette answer at some hints. *)
let diff_algorithm ~mode last_view =
  A.stateless ~name:"diff-probe" ~locality:(fun ~n:_ -> 0) (fun view ->
      last_view := Some view;
      let target = view.V.target in
      let row, col =
        match view.V.hint target with
        | Some (V.Grid_pos { row; col; _ }) -> (row, col)
        | _ -> (0, 0)
      in
      let outs = List.filter_map view.V.output (view.V.neighbors target) in
      let first_fit () =
        match List.find_opt (fun c -> not (List.mem c outs)) [ 0; 1; 2 ] with
        | Some c -> c
        | None -> 0
      in
      match mode with
      | 0 -> first_fit ()
      | 1 -> (((row + (2 * col)) mod 3) + 3) mod 3
      | 2 -> ( match List.rev outs with c :: _ -> c | [] -> row land 1)
      | _ -> if ((row * 31) + (col * 17)) mod 11 = 0 then 3 else first_fit ())

(* Which presentations the executor could answer with a rim: the first
   presented grid neighbor in N, S, W, E order (frame orientation), or
   none — the full-diamond base case.  Counted over every case. *)
let branch_counts = Array.make 5 0

let run_differential seed =
  let rng = Proptest.Rng.of_seed seed in
  let int n = Proptest.Rng.int rng n and int_in lo hi = Proptest.Rng.int_in rng lo hi in
  let radius = int 5 and mode = int 4 in
  let rv = ref None and nv = ref None in
  let rvg =
    Ref_vg.create ~palette:3 ~n_total:1_000_000 ~radius
      ~algorithm:(diff_algorithm ~mode rv) ()
  and nvg =
    Vg.create ~palette:3 ~n_total:1_000_000 ~radius
      ~algorithm:(diff_algorithm ~mode nv) ()
  in
  let ctx = ref "start" in
  let same what a b =
    if a <> b then failwith (Printf.sprintf "seed %d, %s: %s differs" seed !ctx what)
  in
  let frames = ref [||] in
  let presented = Hashtbl.create 64 in
  let new_frame () =
    let p =
      {
        fid = Array.length !frames;
        rf = Ref_vg.new_frame rvg;
        nf = Vg.new_frame nvg;
        live = true;
      }
    in
    frames := Array.append !frames [| p |]
  in
  (* A live frame, or now and then any frame (a dead one raises). *)
  let pick () =
    let all = Array.to_list !frames in
    let live = List.filter (fun p -> p.live) all in
    let pool = if live = [] || int 10 = 0 then all else live in
    List.nth pool (int (List.length pool))
  in
  let span_of p = if p.live then Some (Vg.span nvg p.nf) else None in
  (* The frame coordinates of a handle, from the current executor. *)
  let position h =
    match !nv with
    | Some v -> (
        match v.V.hint h with
        | Some (V.Grid_pos { frame; row; col }) -> (frame, row, col)
        | _ -> assert false)
    | None -> assert false
  in
  let compare_views () =
    same "asked the algorithm" (Option.is_some !rv) (Option.is_some !nv);
    match (!rv, !nv) with
    | Some r, Some n ->
        same "node_count" (r.V.node_count ()) (n.V.node_count ());
        for h = 0 to n.V.node_count () - 1 do
          same "neighbors" (r.V.neighbors h) (n.V.neighbors h);
          (let visited = ref [] in
           n.V.iter_neighbors h (fun w -> visited := w :: !visited);
           same "iter_neighbors" (List.sort compare (r.V.neighbors h))
             (List.sort compare !visited));
          same "hint" (r.V.hint h) (n.V.hint h);
          same "output" (r.V.output h) (n.V.output h)
        done
    | _ -> ()
  in
  let present p ~row ~col =
    let is_presented ~row ~col =
      match Vg.handle_at nvg p.nf ~row ~col with
      | Some h -> Hashtbl.mem presented h
      | None -> false
    in
    (if p.live && radius > 0 && abs row < 1 lsl 20 && not (is_presented ~row ~col)
     then
       let dirs = [ (1, -1, 0); (2, 1, 0); (3, 0, -1); (4, 0, 1) ] in
       let hit =
         List.find_opt
           (fun (_, dr, dc) -> is_presented ~row:(row + dr) ~col:(col + dc))
           dirs
       in
       let b = match hit with Some (b, _, _) -> b | None -> 0 in
       branch_counts.(b) <- branch_counts.(b) + 1);
    let r = attempt (fun () -> Ref_vg.present rvg p.rf ~row ~col) in
    let n = attempt (fun () -> Vg.present nvg p.nf ~row ~col) in
    same "present result" r n;
    match (n, !rv, !nv) with
    | Ok _, Some r, Some n ->
        same "target" r.V.target n.V.target;
        same "new_nodes" r.V.new_nodes n.V.new_nodes;
        same "step" r.V.step n.V.step;
        Hashtbl.replace presented n.V.target ()
    | _ -> ()
  in
  let present_op () =
    let p = pick () in
    let in_frame =
      if !nv = None then []
      else
        Hashtbl.fold
          (fun h () acc ->
            let frame, row, col = position h in
            if frame = p.fid then (row, col) :: acc else acc)
          presented []
    in
    let row, col =
      match (int 16, in_frame) with
      | 0, _ -> (1 lsl 29, 0)
      | 1, (_ :: _ as cells) -> List.nth cells (int (List.length cells))
      | (2 | 3 | 4 | 5 | 6 | 7 | 8), (_ :: _ as cells) ->
          let row, col = List.nth cells (int (List.length cells)) in
          let dr, dc = List.nth [ (-1, 0); (1, 0); (0, -1); (0, 1) ] (int 4) in
          (row + dr, col + dc)
      | _ -> (
          match span_of p with
          | Some ((rlo, rhi), (clo, chi)) when rlo <= rhi ->
              (int_in (rlo - 1) (rhi + 1), int_in (clo - 1) (chi + 1))
          | _ -> (int_in (-3) 3, int_in (-3) 3))
    in
    ctx := Printf.sprintf "present (%d,%d)" row col;
    present p ~row ~col
  in
  let reflect_op () =
    let p = pick () in
    ctx := "reflect";
    same "reflect result"
      (attempt (fun () -> Ref_vg.reflect rvg p.rf))
      (attempt (fun () -> Vg.reflect nvg p.nf))
  in
  let merge_op () =
    let keep = pick () in
    let absorb =
      match List.filter (fun p -> p.live && p != keep) (Array.to_list !frames) with
      | _ when int 8 = 0 -> pick ()
      | [] ->
          (* A fresh one-node fragment to place. *)
          new_frame ();
          let p = !frames.(Array.length !frames - 1) in
          present p ~row:0 ~col:0;
          p
      | others -> List.nth others (int (List.length others))
    in
    let refl = Proptest.Rng.bool rng in
    let dr, dc =
      match (span_of keep, span_of absorb) with
      | Some ((krl, krh), (kcl, kch)), Some ((arl, arh), (acl, ach))
        when krl <= krh && arl <= arh -> (
          let mcl, mch = if refl then (-ach, -acl) else (acl, ach) in
          let gap = int_in (-1) 3 in
          (* [gap] free columns (rows) between the boxes, side by side
             (stacked); -1 overlaps them. *)
          match int 10 with
          | 0 -> (0, 1 lsl 30)
          | 1 | 2 -> (int_in (krl - arh - 2) (krh - arl + 2), kch + gap + 1 - mcl)
          | 3 | 4 -> (int_in (krl - arh - 2) (krh - arl + 2), kcl - gap - 1 - mch)
          | 5 | 6 -> (krh + gap + 1 - arl, int_in (kcl - mch - 2) (kch - mcl + 2))
          | 7 | 8 -> (krl - gap - 1 - arh, int_in (kcl - mch - 2) (kch - mcl + 2))
          | _ -> (int_in (-8) 8, int_in (-8) 8))
      | _ -> (int_in (-8) 8, int_in (-8) 8)
    in
    ctx := Printf.sprintf "merge reflect=%b dr=%d dc=%d" refl dr dc;
    let r =
      attempt (fun () ->
          Ref_vg.merge rvg ~keep:keep.rf ~absorb:absorb.rf ~reflect:refl ~dr ~dc)
    in
    let n =
      attempt (fun () ->
          Vg.merge nvg ~keep:keep.nf ~absorb:absorb.nf ~reflect:refl ~dr ~dc)
    in
    same "merge result" r n;
    if n = Ok () then absorb.live <- false
  in
  let span_op () =
    let p = pick () in
    ctx := "span";
    same "span"
      (attempt (fun () -> Ref_vg.span rvg p.rf))
      (attempt (fun () -> Vg.span nvg p.nf))
  in
  new_frame ();
  for i = 1 to 10 + int 30 do
    (match int 12 with
    | 0 | 1 -> new_frame ()
    | 2 -> reflect_op ()
    | 3 | 4 -> merge_op ()
    | 5 -> span_op ()
    | _ -> present_op ());
    ctx := Printf.sprintf "after op %d (%s)" i !ctx;
    same "presented_count" (Ref_vg.presented_count rvg) (Vg.presented_count nvg);
    same "revealed_count" (Ref_vg.revealed_count rvg) (Vg.revealed_count nvg);
    same "frames" (List.length (Ref_vg.frames rvg)) (List.length (Vg.frames nvg));
    compare_views ()
  done;
  ctx := "end";
  Array.iter
    (fun p ->
      let window =
        match span_of p with
        | Some ((rlo, rhi), (clo, chi)) when rlo <= rhi ->
            (rlo - 1, rhi + 1, clo - 1, chi + 1)
        | _ -> (-6, 6, -6, 6)
      in
      if p.live then same "span" (Ref_vg.span rvg p.rf) (Vg.span nvg p.nf);
      let rlo, rhi, clo, chi = window in
      for row = rlo to rhi do
        for col = clo to chi do
          same "handle_at"
            (Ref_vg.handle_at rvg p.rf ~row ~col)
            (Vg.handle_at nvg p.nf ~row ~col);
          same "color_at"
            (Ref_vg.color_at rvg p.rf ~row ~col)
            (Vg.color_at nvg p.nf ~row ~col)
        done
      done)
    !frames;
  same "snapshot_region"
    (Grid_graph.Graph.edges (Ref_vg.snapshot_region rvg))
    (Grid_graph.Graph.edges (Vg.snapshot_region nvg));
  for h = 0 to Vg.revealed_count nvg - 1 do
    same "output" (Ref_vg.output rvg h) (Vg.output nvg h)
  done;
  same "violation" (Ref_vg.violation rvg) (Vg.violation nvg);
  same "scan_monochromatic" (Ref_vg.scan_monochromatic rvg) (Vg.scan_monochromatic nvg);
  same "validate"
    (attempt (fun () -> Ref_vg.validate rvg))
    (attempt (fun () -> Vg.validate nvg))

let prop_matches_reference =
  let name = "matches the reference executor on random operation sequences" in
  Alcotest.test_case name `Quick (fun () ->
      Array.fill branch_counts 0 5 0;
      Proptest.Runner.check_exn
        ~config:{ Proptest.Runner.default_config with seed = 0xD1FF; cases = 300 }
        ~name ~print:string_of_int
        (Proptest.Gen.int_range 0 1_000_000)
        (fun seed ->
          run_differential seed;
          true);
      Array.iteri
        (fun b count ->
          if count = 0 then
            Alcotest.failf "no presentation took %s"
              [| "the full diamond"; "the rim under a presented north neighbor";
                 "the rim under a presented south neighbor";
                 "the rim under a presented west neighbor";
                 "the rim under a presented east neighbor" |].(b))
        branch_counts)

let () =
  Alcotest.run "virtual-grid"
    [
      ( "reveal",
        [
          Alcotest.test_case "diamond" `Quick test_present_reveals_diamond;
          Alcotest.test_case "double present" `Quick test_present_twice_rejected;
          Alcotest.test_case "colors recorded" `Quick test_colors_recorded;
          Alcotest.test_case "greedy row" `Quick test_greedy_row_proper;
          Alcotest.test_case "span" `Quick test_span;
        ] );
      ( "merge",
        [
          Alcotest.test_case "too close rejected" `Quick test_merge_too_close_rejected;
          Alcotest.test_case "gap 2 ok" `Quick test_merge_at_gap_2_ok;
          Alcotest.test_case "absorbed frame dies" `Quick test_absorbed_frame_dies;
          Alcotest.test_case "reflect" `Quick test_reflect_remaps;
        ] );
      ( "honesty",
        [
          Alcotest.test_case "validate accepts honest" `Quick test_validate_catches_dishonesty;
          Alcotest.test_case "hints follow merges" `Quick test_hints_follow_merges;
          Alcotest.test_case "reflected merge then connect" `Quick test_reflected_merge_then_connect;
          prop_random_honest_adversary_validates;
        ] );
      ("model", [ prop_matches_reference ]);
    ]
