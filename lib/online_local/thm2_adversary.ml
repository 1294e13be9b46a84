open Grid_graph

type report = {
  result : Models.Run_stats.result;
  s_east : int;
  s_west : int;
  reflected : bool;
  presented : int;
  revealed : int;
  preconditions_met : bool;
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>result=%a s_east=%d s_west=%d reflected=%b presented=%d preconditions=%b@]"
    Models.Run_stats.pp_result r.result
    r.s_east r.s_west r.reflected r.presented r.preconditions_met

let variant_host ~wrap ~rows ~cols ~reflect ~band_lo ~band_hi =
  if rows < 3 || cols < 3 then invalid_arg "thm2: dimensions must be >= 3";
  let id r j = (r * cols) + j in
  let sigma j = if reflect then (cols - j) mod cols else j in
  let in_band r = r >= band_lo && r <= band_hi in
  Graph.build ~n:(rows * cols) (fun add ->
      for r = 0 to rows - 1 do
        for j = 0 to cols - 1 do
          (* Horizontal row cycle (identical in both variants). *)
          add (id r j) (id r ((j + 1) mod cols));
          (* Vertical edge r -> r+1 (torus wraps; cylinder stops: -1). *)
          let r' =
            if r + 1 < rows then r + 1
            else match wrap with `Toroidal -> 0 | `Cylindrical -> -1
          in
          if r' >= 0 then begin
            let crossing = in_band r <> in_band r' in
            let j' = if crossing then sigma j else j in
            add (id r j) (id r' j')
          end
        done
      done)

let run_rect ?validate ~wrap ~rows ~cols ~algorithm () =
  let n = rows * cols in
  let t = algorithm.Models.Algorithm.locality ~n in
  (* Odd columns make the row b-values odd; 4T+4 rows leave room for two
     non-interacting bands plus unrevealed seam rows.  Only the row count
     gates the locality: the remark after Theorem 2 (Omega(a) whenever
     the number of columns b is odd). *)
  let preconditions_met = cols mod 2 = 1 && (4 * t) + 4 <= rows in
  (* Bands: band 1 around row t, band 2 around row 3t+2; the reflected
     band covers rows 2t+1 .. 4t+3 so both seams are unrevealed when the
     two rows have been presented. *)
  let row1 = t and row2 = (3 * t) + 2 in
  let band_lo = (2 * t) + 1 and band_hi = min ((4 * t) + 3) (rows - 1) in
  (* Below the threshold a band row can lie outside the host: it
     contributes no nodes, and its b-value reads 0. *)
  let row_nodes r =
    if r < rows then List.init cols (fun j -> (r * cols) + j) else []
  in
  (* Equation (1)'s b-value of row [row] as a cycle (Definition 3.1),
     directed east or west, from the colors of its nodes. *)
  let row_b coloring ~row ~east =
    let colors =
      Array.of_list (List.map (Colorings.Coloring.get_exn coloring) (row_nodes row))
    in
    let cycle = List.init (Array.length colors) Fun.id in
    Colorings.Bvalue.b_cycle colors (if east then cycle else List.rev cycle)
  in
  let prefix = row_nodes row1 @ row_nodes row2 in
  (* Dense packed-int set — the executor core's representation — instead
     of an [(int, unit)] hashtable for the prefix-complement scan. *)
  let in_prefix = Grid_graph.Packed.Set.create n in
  List.iter (fun v -> Grid_graph.Packed.Set.add in_prefix v) prefix;
  let rest =
    List.filter
      (fun v -> not (Grid_graph.Packed.Set.mem in_prefix v))
      (List.init n (fun v -> v))
  in
  let run_on host order =
    Models.Fixed_host.run ?validate ~host ~palette:3 ~algorithm ~order ()
  in
  let host reflect = variant_host ~wrap ~rows ~cols ~reflect ~band_lo ~band_hi in
  let plain = host false in
  (* The attack is only guaranteed above the threshold; below it, play
     the plain host anyway so sweeps can chart the frontier.  Above it,
     color the two rows on the plain host and reflect exactly when
     they satisfy Equation (1).  A probe the executor stopped is the
     run: a replay would fail at the same node, or, against a guard that
     re-raises its first fault, at the replay's first presentation. *)
  let probe = if preconditions_met then Some (run_on plain prefix) else None in
  let reflect, outcome =
    match probe with
    | Some p when Models.Fixed_host.stopped p -> (false, p)
    | Some { Models.Run_stats.violation = None; coloring; _ }
      when row_b coloring ~row:row1 ~east:true + row_b coloring ~row:row2 ~east:false = 0 ->
        (true, run_on (host true) (prefix @ rest))
    | Some _ | None -> (false, run_on plain (prefix @ rest))
  in
  let coloring = outcome.Models.Run_stats.coloring in
  let s_east, s_west =
    if Colorings.Coloring.is_total coloring then
      (row_b coloring ~row:row1 ~east:true, row_b coloring ~row:row2 ~east:false)
    else (0, 0)
  in
  {
    result =
      (match outcome.Models.Run_stats.violation with
      | Some v -> `Defeated v
      | None -> `Survived);
    s_east;
    s_west;
    reflected = reflect;
    presented = outcome.Models.Run_stats.presented;
    revealed = outcome.Models.Run_stats.revealed;
    preconditions_met;
  }

let run ?validate ~wrap ~side ~algorithm () =
  run_rect ?validate ~wrap ~rows:side ~cols:side ~algorithm ()
