open Grid_graph

type t = {
  k : int;
  base_size : int;
  graph : Graph.t;
  layer : int array;
  parent : int array;  (* -1 for the base layer *)
  twin : int array;  (* node -> its duplicate in the top layer, or -1 *)
}

let k t = t.k
let graph t = t.graph
let base_size t = t.base_size
let layer t v = t.layer.(v)
let parent t v = if t.parent.(v) < 0 then None else Some t.parent.(v)

let rec base_ancestor t v =
  match parent t v with None -> v | Some u -> base_ancestor t u

let duplicate_in_top_layer t v = if t.twin.(v) < 0 then None else Some t.twin.(v)

let create ~base ~k =
  if k < 2 then invalid_arg "Layered.create: k must be >= 2";
  let base_size = Graph.n base in
  let rec grow current layer parent level =
    if level = k then (current, layer, parent)
    else begin
      let size = Graph.n current in
      (* The current graph, and node u duplicated as u + size, adjacent
         to u and N(u). *)
      let bigger =
        Graph.build ~n:(2 * size) (fun add ->
            Graph.iter_edges current add;
            Graph.iter_nodes current (fun u ->
                add u (u + size);
                Graph.iter_neighbors current u (fun w -> add (u + size) w)))
      in
      let layer' = Array.append layer (Array.make size (level + 1)) in
      let parent' = Array.append parent (Array.init size (fun u -> u)) in
      grow bigger layer' parent' (level + 1)
    end
  in
  let graph, layer, parent =
    grow base (Array.make base_size 2) (Array.make base_size (-1)) 2
  in
  let size = Graph.n graph in
  let twin = Array.make size (-1) in
  if k > 2 then begin
    let top_start = size / 2 in
    for v = top_start to size - 1 do
      twin.(parent.(v)) <- v
    done
  end;
  { k; base_size; graph; layer; parent; twin }

let canonical_k_coloring t =
  let base_nodes = List.init t.base_size (fun i -> i) in
  let emb = Subgraph.induced t.graph base_nodes in
  match Bipartite.two_color emb.Subgraph.graph with
  | None -> invalid_arg "Layered.canonical_k_coloring: base graph not bipartite"
  | Some side ->
      Array.init (Graph.n t.graph) (fun v ->
          if t.layer.(v) = 2 then side.(v) else t.layer.(v) - 1)
