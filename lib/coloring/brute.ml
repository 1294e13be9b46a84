open Grid_graph

(* Nodes in decreasing degree order: coloring high-degree nodes first
   prunes the search much earlier on the dense gadget graphs of Section 4. *)
let search_order g =
  let order = Array.init (Graph.n g) (fun i -> i) in
  Array.sort (fun u v -> compare (Graph.degree g v) (Graph.degree g u)) order;
  order

let solve ?partial g ~colors ~on_solution =
  let n = Graph.n g in
  let assignment = Array.make n (-1) in
  (match partial with
  | Some p ->
      if Coloring.size p <> n then invalid_arg "Brute: partial coloring size mismatch";
      List.iter (fun v -> assignment.(v) <- Coloring.get_exn p v) (Coloring.colored_nodes p)
  | None -> ());
  let order = search_order g in
  let free = Array.of_list (List.filter (fun v -> assignment.(v) = -1) (Array.to_list order)) in
  let allowed v c =
    Graph.for_all_neighbors g v (fun w -> assignment.(w) <> c)
  in
  (* Check the pre-colored part is itself consistent before searching. *)
  let precolored_ok =
    Graph.fold_edges g ~init:true ~f:(fun ok u v ->
        ok && not (assignment.(u) <> -1 && assignment.(u) = assignment.(v)))
    && Array.for_all (fun c -> c < colors) assignment
  in
  if precolored_ok then begin
    let rec go i =
      if i = Array.length free then on_solution (Array.copy assignment)
      else begin
        let v = free.(i) in
        for c = 0 to colors - 1 do
          if allowed v c then begin
            assignment.(v) <- c;
            go (i + 1);
            assignment.(v) <- -1
          end
        done
      end
    in
    go 0
  end

exception Found of int array

let find_coloring ?partial g ~colors =
  try
    solve ?partial g ~colors ~on_solution:(fun a -> raise (Found a));
    None
  with Found a -> Some a

let exists_coloring ?partial g ~colors = Option.is_some (find_coloring ?partial g ~colors)

let chromatic_number g =
  if Graph.n g = 0 then 0
  else
    let rec from c = if exists_coloring g ~colors:c then c else from (c + 1) in
    from 1

let iter_colorings g ~colors f = solve g ~colors ~on_solution:f

let count_colorings g ~colors =
  let count = ref 0 in
  iter_colorings g ~colors (fun _ -> incr count);
  !count
