open Grid_graph

type colors = int array

let special = 2

let check_color c =
  if c < 0 || c > 2 then
    invalid_arg (Printf.sprintf "Bvalue: color %d outside {0,1,2}" c)

let a_of_colors cu cv =
  check_color cu;
  check_color cv;
  if cu = special || cv = special then 0 else cu - cv

let a_value colors u v = a_of_colors colors.(u) colors.(v)

let indicator colors u =
  check_color colors.(u);
  if colors.(u) = special then 1 else 0

let b_path colors path =
  List.fold_left (fun acc (u, v) -> acc + a_value colors u v) 0 (Walk.arcs path)

let b_cycle colors cycle =
  List.fold_left (fun acc (u, v) -> acc + a_value colors u v) 0 (Walk.cycle_arcs cycle)

let path_parity colors path =
  match path with
  | [] -> 0
  | first :: _ ->
      let last = List.nth path (List.length path - 1) in
      (indicator colors first + indicator colors last + Walk.length path) mod 2

let check_parity_path colors path =
  (b_path colors path - path_parity colors path) mod 2 = 0

let check_parity_cycle colors cycle =
  (b_cycle colors cycle - Walk.cycle_length cycle) mod 2 = 0

let check_cell_cancellation g colors cycle =
  Walk.cycle_length cycle = 4
  && Walk.is_cycle g cycle
  && List.for_all (fun (u, v) -> colors.(u) <> colors.(v)) (Walk.cycle_arcs cycle)
  && b_cycle colors cycle = 0

let grid_cycle_b_is_zero _grid colors cycle = b_cycle colors cycle = 0

let rectangle_cycle grid ~top ~bottom ~left ~right =
  if top >= bottom || left >= right then
    invalid_arg "Bvalue.rectangle_cycle: degenerate rectangle";
  let open Topology.Grid2d in
  (* Bottom row rightward, right column upward, top row leftward, left
     column downward; each corner appears exactly once. *)
  let bottom_row = row_segment grid ~row:bottom ~col_lo:left ~col_hi:right in
  let right_col = List.rev (col_segment grid ~col:right ~row_lo:top ~row_hi:bottom) in
  let top_row = List.rev (row_segment grid ~row:top ~col_lo:left ~col_hi:right) in
  let left_col = col_segment grid ~col:left ~row_lo:top ~row_hi:bottom in
  let drop_last l = List.filteri (fun i _ -> i < List.length l - 1) l in
  drop_last bottom_row @ drop_last right_col @ drop_last top_row @ drop_last left_col
