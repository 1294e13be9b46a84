module Vg = Virtual_grid

type report = {
  result : [ `Defeated of Models.Run_stats.violation | `Survived ];
  forced_b : int;
  cycle_b : int option;
  presented : int;
  revealed : int;
  width : int;
  height : int;
  fits : bool;
  snapshot : string option;
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>result=%s forced_b=%d cycle_b=%s presented=%d revealed=%d span=%dx%d fits=%b@]"
    (match r.result with
    | `Defeated v -> Format.asprintf "DEFEATED (%a)" Models.Run_stats.pp_violation v
    | `Survived -> "survived")
    r.forced_b
    (match r.cycle_b with None -> "-" | Some b -> string_of_int b)
    r.presented r.revealed r.width r.height r.fits

(* A directed row path, fully presented, inside a frame: row 0, columns
   [lo .. hi], traversed left-to-right ([`Fwd]) or right-to-left, with
   b-value [b] in that direction. *)
type path = { frame : Vg.frame; lo : int; hi : int; dir : [ `Fwd | `Rev ]; b : int }

exception Defeated_early of Models.Run_stats.violation

let check vg =
  match Vg.violation vg with Some v -> raise (Defeated_early v) | None -> ()

let color_exn vg f ~row ~col =
  match Vg.color_at vg f ~row ~col with
  | Some c -> c
  | None ->
      invalid_arg
        (Printf.sprintf "thm1: expected a color at (%d,%d)" row col)

let a_value cu cv = if cu = 2 || cv = 2 then 0 else cu - cv

(* b-value of the row-0 path [lo .. hi] traversed forward. *)
let b_row vg f ~lo ~hi =
  let b = ref 0 in
  for col = lo to hi - 1 do
    b :=
      !b
      + a_value (color_exn vg f ~row:0 ~col) (color_exn vg f ~row:0 ~col:(col + 1))
  done;
  !b

(* b-value of the column path at [col] traversed from [row_from] towards
   [row_to] (either direction). *)
let b_col vg f ~col ~row_from ~row_to =
  let step = if row_to >= row_from then 1 else -1 in
  let b = ref 0 in
  let row = ref row_from in
  while !row <> row_to do
    b :=
      !b
      + a_value
          (color_exn vg f ~row:!row ~col)
          (color_exn vg f ~row:(!row + step) ~col);
    row := !row + step
  done;
  !b

let normalize_forward vg p =
  match p.dir with
  | `Fwd -> p
  | `Rev ->
      Vg.reflect vg p.frame;
      { p with lo = -p.hi; hi = -p.lo; dir = `Fwd }

let present_row vg f ~row ~col_lo ~col_hi =
  for col = col_lo to col_hi do
    (match Vg.handle_at vg f ~row ~col with
    | Some h when Vg.color_at vg f ~row ~col <> None -> ignore h
    | Some _ | None -> ignore (Vg.present vg f ~row ~col));
    check vg
  done

(* Lemma 3.6: force a row path with b-value >= k. *)
let rec build vg ~k ~radius =
  if k <= 0 then begin
    let f = Vg.new_frame vg in
    ignore (Vg.present vg f ~row:0 ~col:0);
    check vg;
    { frame = f; lo = 0; hi = 0; dir = `Fwd; b = 0 }
  end
  else begin
    let p1 = build vg ~k:(k - 1) ~radius in
    if p1.b >= k then p1
    else begin
      let p2 = build vg ~k:(k - 1) ~radius in
      if p2.b >= k then p2
      else begin
        let p1 = normalize_forward vg p1 and p2 = normalize_forward vg p2 in
        (* Region extents decide the placement; the gap between the two
           discovered regions is the paper's l in {2, 3}. *)
        let _, (_, b1_region) = Vg.span vg p1.frame in
        let _, (a2_region, _) = Vg.span vg p2.frame in
        let s_col_of gap = p2.lo + (b1_region + gap + 1 - a2_region) in
        let cv = color_exn vg p1.frame ~row:0 ~col:p1.hi in
        let cs = color_exn vg p2.frame ~row:0 ~col:p2.lo in
        let ind c = if c = 2 then 1 else 0 in
        let parity_of gap = (ind cv + ind cs + (s_col_of gap - p1.hi)) mod 2 in
        let gap = if parity_of 2 <> (k - 1) mod 2 then 2 else 3 in
        assert (parity_of gap <> (k - 1) mod 2);
        let offset = b1_region + gap + 1 - a2_region in
        let s_col = p2.lo + offset in
        let t_col = p2.hi + offset in
        Vg.merge vg ~keep:p1.frame ~absorb:p2.frame ~reflect:false ~dr:0 ~dc:offset;
        (* Ask for the connecting nodes (region overhangs plus the gap). *)
        present_row vg p1.frame ~row:0 ~col_lo:(p1.hi + 1) ~col_hi:(s_col - 1);
        let h = b_row vg p1.frame ~lo:p1.hi ~hi:s_col in
        let b_full = p1.b + h + p2.b in
        let candidates =
          [
            { frame = p1.frame; lo = p1.hi; hi = s_col; dir = `Fwd; b = h };
            { frame = p1.frame; lo = p1.hi; hi = s_col; dir = `Rev; b = -h };
            { frame = p1.frame; lo = p1.lo; hi = t_col; dir = `Fwd; b = b_full };
            { frame = p1.frame; lo = p1.lo; hi = t_col; dir = `Rev; b = -b_full };
          ]
        in
        let best =
          List.fold_left (fun acc c -> if c.b > acc.b then c else acc)
            (List.hd candidates) (List.tl candidates)
        in
        if best.b < k then
          failwith
            (Printf.sprintf
               "thm1: Lemma 3.6 invariant broken (best b=%d < k=%d) — improper coloring \
                slipped through"
               best.b k);
        best
      end
    end
  end

let total_span vg frames =
  (* Bounding box of the main frame plus stacked leftovers. *)
  List.fold_left
    (fun (w, h) f ->
      let (rlo, rhi), (clo, chi) = Vg.span vg f in
      (max w (chi - clo + 1), h + (rhi - rlo + 1) + 2))
    (0, 0) frames

let run ?memo ?(endgame = true) ?(validate = false)
    ?(snapshot = false) ?dims ~n_side ~k ~algorithm () =
  let rows, cols = match dims with Some d -> d | None -> (n_side, n_side) in
  let n_total = rows * cols in
  let radius = algorithm.Models.Algorithm.locality ~n:n_total in
  let vg =
    Vg.create ?memo ~palette:3 ~n_total ~radius ~algorithm ()
  in
  let render_window frame ~row_range ~col_range =
    Topology.Render.region ~rows:row_range ~cols:col_range (fun r c ->
        match Vg.handle_at vg frame ~row:r ~col:c with
        | None -> `Unseen
        | Some _ -> (
            match Vg.color_at vg frame ~row:r ~col:c with
            | Some color -> `Colored color
            | None -> `Seen))
  in
  let finish ?window ~result ~forced_b ~cycle_b () =
    let width, height =
      match Vg.frames vg with [] -> (0, 0) | frames -> total_span vg frames
    in
    if validate then Vg.validate vg;
    if Obs.Stats.on () then begin
      (* Per-run distributions for sweep campaigns (thm2/thm3 get the
         equivalent from Fixed_host.audit).  Deterministic per cell, so
         the drained totals honor the Stats jobs-invariance contract. *)
      Obs.Stats.observe "thm1.presented" (Vg.presented_count vg);
      Obs.Stats.observe "thm1.revealed" (Vg.revealed_count vg);
      Obs.Stats.observe "thm1.span_width" width;
      Obs.Stats.observe "thm1.span_height" height
    end;
    let snapshot =
      match (snapshot, window) with
      | true, Some (frame, row_range, col_range) ->
          Some (render_window frame ~row_range ~col_range)
      | _ -> None
    in
    {
      result;
      forced_b;
      cycle_b;
      presented = Vg.presented_count vg;
      revealed = Vg.revealed_count vg;
      width;
      height;
      fits = width <= cols && height <= rows;
      snapshot;
    }
  in
  try
    let p = build vg ~k ~radius in
    if not endgame then
      match Vg.scan_monochromatic vg with
      | Some (u, v) ->
          finish
            ~result:(`Defeated (Models.Run_stats.Monochromatic_edge (u, v)))
            ~forced_b:p.b ~cycle_b:None ()
      | None -> finish ~result:`Survived ~forced_b:p.b ~cycle_b:None ()
    else begin
      let p = normalize_forward vg p in
      (* Second row, 2T+2 above; a separate component the algorithm colors
         blind, whose direction we then choose. *)
      let f2 = Vg.new_frame vg in
      let len = p.hi - p.lo in
      present_row vg f2 ~row:0 ~col_lo:0 ~col_hi:len;
      let b2 = b_row vg f2 ~lo:0 ~hi:len in
      let dr = -(2 * radius + 2) in
      (* P_{s,t} runs from above p.hi back to above p.lo.  Placement (a)
         maps f2 forward (col 0 -> p.lo), so that traversal is f2-reversed
         (b = -b2); placement (b) reflects (col 0 -> p.hi), making it
         f2-forward (b = +b2).  Pick whichever gives b >= 0. *)
      (if b2 >= 0 then Vg.merge vg ~keep:p.frame ~absorb:f2 ~reflect:true ~dr ~dc:p.hi
       else Vg.merge vg ~keep:p.frame ~absorb:f2 ~reflect:false ~dr ~dc:p.lo);
      let b_st = abs b2 in
      (* Fill the rectangle between the two rows. *)
      for row = dr + 1 to -1 do
        present_row vg p.frame ~row ~col_lo:p.lo ~col_hi:p.hi
      done;
      let b_vs = b_col vg p.frame ~col:p.hi ~row_from:0 ~row_to:dr in
      let b_tu = b_col vg p.frame ~col:p.lo ~row_from:dr ~row_to:0 in
      let cycle_b = p.b + b_vs + b_st + b_tu in
      let window = (p.frame, (dr - radius, radius), (p.lo - 2, p.hi + 2)) in
      match Vg.scan_monochromatic vg with
      | Some (u, v) ->
          finish ~window
            ~result:(`Defeated (Models.Run_stats.Monochromatic_edge (u, v)))
            ~forced_b:p.b ~cycle_b:(Some cycle_b) ()
      | None ->
          if cycle_b <> 0 then
            failwith
              (Printf.sprintf
                 "thm1: cycle b-value %d nonzero yet no monochromatic edge — Lemma 3.4 \
                  contradicted (bug)"
                 cycle_b)
          else finish ~window ~result:`Survived ~forced_b:p.b ~cycle_b:(Some cycle_b) ()
    end
  with Defeated_early v ->
    (* Frames may be mid-construction; report what we know. *)
    finish ~result:(`Defeated v) ~forced_b:0 ~cycle_b:None ()

let recommended_k ~n_side ~t =
  let rec go k width =
    let next = (2 * width) + 3 in
    if next > n_side then k else go (k + 1) next
  in
  let base = (2 * t) + 1 in
  if base > n_side then 0 else go 0 base

let guaranteed ~t ~k = k > (4 * t) + 4
