open Grid_graph

type report = {
  result : [ `Defeated of Models.Run_stats.violation | `Survived ];
  s_east : int;
  s_west : int;
  reflected : bool;
  presented : int;
  revealed : int;
  preconditions_met : bool;
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>result=%s s_east=%d s_west=%d reflected=%b presented=%d preconditions=%b@]"
    (match r.result with
    | `Defeated v -> Format.asprintf "DEFEATED (%a)" Models.Run_stats.pp_violation v
    | `Survived -> "survived")
    r.s_east r.s_west r.reflected r.presented r.preconditions_met

let variant_host_rect ~wrap ~rows ~cols ~reflect ~band_lo ~band_hi =
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

let variant_host ~wrap ~side ~reflect ~band_lo ~band_hi =
  variant_host_rect ~wrap ~rows:side ~cols:side ~reflect ~band_lo ~band_hi

let row_cycle_b_rect coloring ~cols ~row ~east =
  let color j = Colorings.Coloring.get_exn coloring ((row * cols) + j) in
  let a cu cv = if cu = 2 || cv = 2 then 0 else cu - cv in
  let b = ref 0 in
  for j = 0 to cols - 1 do
    let j' = (j + 1) mod cols in
    if east then b := !b + a (color j) (color j')
    else b := !b + a (color j') (color j)
  done;
  !b

let row_cycle_b coloring ~side ~row ~east = row_cycle_b_rect coloring ~cols:side ~row ~east

let run_rect ~wrap ~rows ~cols ~algorithm () =
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
  let row_b coloring ~row ~east =
    if row < rows then row_cycle_b_rect coloring ~cols ~row ~east else 0
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
  let full_order = prefix @ rest in
  let run_on host order =
    Models.Fixed_host.run ~host ~palette:3 ~algorithm ~order ()
  in
  if not preconditions_met then
    (* The attack is only guaranteed above the threshold; still play the
       plain host so sweeps can chart the frontier. *)
    let host = variant_host_rect ~wrap ~rows ~cols ~reflect:false ~band_lo ~band_hi in
    let outcome = run_on host full_order in
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
      reflected = false;
      presented = outcome.Models.Run_stats.presented;
      revealed = outcome.Models.Run_stats.revealed;
      preconditions_met;
    }
  else begin
    (* Probe: color the two rows on the plain host. *)
    let plain = variant_host_rect ~wrap ~rows ~cols ~reflect:false ~band_lo ~band_hi in
    let probe = run_on plain prefix in
    let reflect =
      match probe.Models.Run_stats.violation with
      | Some _ -> false  (* already failing; no need to reflect *)
      | None ->
          let s1 = row_cycle_b_rect probe.Models.Run_stats.coloring ~cols ~row:row1 ~east:true in
          let s2 = row_cycle_b_rect probe.Models.Run_stats.coloring ~cols ~row:row2 ~east:false in
          s1 + s2 = 0
    in
    let host =
      if reflect then variant_host_rect ~wrap ~rows ~cols ~reflect:true ~band_lo ~band_hi
      else plain
    in
    let outcome = run_on host full_order in
    let coloring = outcome.Models.Run_stats.coloring in
    let s_east, s_west =
      if Colorings.Coloring.is_total coloring then
        ( row_cycle_b_rect coloring ~cols ~row:row1 ~east:true,
          row_cycle_b_rect coloring ~cols ~row:row2 ~east:false )
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
  end

let run ~wrap ~side ~algorithm () =
  run_rect ~wrap ~rows:side ~cols:side ~algorithm ()
