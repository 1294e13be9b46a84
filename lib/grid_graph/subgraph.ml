type embedding = {
  graph : Graph.t;
  to_host : Graph.node array;
  of_host : (Graph.node, Graph.node) Hashtbl.t;
}

let induced g subset =
  let nodes = List.sort_uniq compare subset in
  let to_host = Array.of_list nodes in
  let of_host = Hashtbl.create (Array.length to_host * 2 + 1) in
  Array.iteri (fun i v -> Hashtbl.replace of_host v i) to_host;
  let edges = ref [] in
  Array.iteri
    (fun i v ->
      Graph.iter_neighbors g v (fun w ->
          match Hashtbl.find_opt of_host w with
          | Some j when i < j -> edges := (i, j) :: !edges
          | Some _ | None -> ()))
    to_host;
  { graph = Graph.create ~n:(Array.length to_host) ~edges:!edges; to_host; of_host }

let of_host_exn emb v = Hashtbl.find emb.of_host v
let mem_host emb v = Hashtbl.mem emb.of_host v
