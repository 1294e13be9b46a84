open Grid_graph

type hint =
  | Grid_pos of { frame : int; row : int; col : int }
  | Gadget_pos of { frame : int; gadget : int; row : int; col : int }
  | Layer_pos of { layer : int }

type t = {
  n_total : int;
  palette : int;
  node_count : unit -> int;
  neighbors : Graph.node -> Graph.node list;
  iter_neighbors : Graph.node -> (Graph.node -> unit) -> unit;
  mem_edge : Graph.node -> Graph.node -> bool;
  id : Graph.node -> int;
  output : Graph.node -> int option;
  hint : Graph.node -> hint option;
  target : Graph.node;
  new_nodes : Graph.node list;
  step : int;
}

let snapshot_graph view =
  let size = view.node_count () in
  let edges = ref [] in
  for u = 0 to size - 1 do
    List.iter (fun v -> if u < v then edges := (u, v) :: !edges) (view.neighbors u)
  done;
  Graph.create ~n:size ~edges:!edges

let ball view v r =
  let dist = Hashtbl.create 64 in
  Hashtbl.replace dist v 0;
  let queue = Queue.create () in
  Queue.add v queue;
  let out = ref [ v ] in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let du = Hashtbl.find dist u in
    if du < r then
      List.iter
        (fun w ->
          if not (Hashtbl.mem dist w) then begin
            Hashtbl.replace dist w (du + 1);
            Queue.add w queue;
            out := w :: !out
          end)
        (view.neighbors u)
  done;
  List.sort compare !out

let ball_view view radius ~output =
  let outer = Array.of_list (ball view view.target radius) in
  let handle = Hashtbl.create ((Array.length outer * 2) + 1) in
  Array.iteri (fun h v -> Hashtbl.replace handle v h) outer;
  let neighbors h = List.filter_map (Hashtbl.find_opt handle) (view.neighbors outer.(h)) in
  {
    view with
    node_count = (fun () -> Array.length outer);
    neighbors;
    iter_neighbors = (fun h f -> List.iter f (neighbors h));
    mem_edge = (fun a b -> view.mem_edge outer.(a) outer.(b));
    id = (fun h -> view.id outer.(h));
    output = (fun h -> output outer.(h));
    hint = (fun _ -> None);
    target = Hashtbl.find handle view.target;
    new_nodes = List.init (Array.length outer) Fun.id;
    step = 1;
  }
