open Grid_graph

type t = {
  name : string;
  locality : n:int -> int;
  output : n:int -> palette:int -> View.t -> int;
}

(* Build a self-contained ball view around [center] inside [host].  The
   handles are fresh (BFS order from the center), so a LOCAL algorithm
   cannot accidentally observe anything outside the ball. *)
let ball_view ~host ~palette ~radius ~center ~outputs =
  let nodes = Bfs.ball host [ center ] radius in
  let handle_of = Hashtbl.create (List.length nodes * 2 + 1) in
  List.iteri (fun i v -> Hashtbl.replace handle_of v i) nodes;
  let host_of = Array.of_list nodes in
  let neighbors h =
    Array.to_list (Graph.neighbors host host_of.(h))
    |> List.filter_map (fun w -> Hashtbl.find_opt handle_of w)
  in
  {
    View.n_total = Graph.n host;
    palette;
    node_count = (fun () -> Array.length host_of);
    neighbors;
    iter_neighbors = (fun h f -> List.iter f (neighbors h));
    mem_edge =
      (fun a b ->
        a < Array.length host_of && b < Array.length host_of
        && Graph.mem_edge host host_of.(a) host_of.(b));
    id = (fun h -> host_of.(h) + 1);
    output = (fun h -> outputs host_of.(h));
    hint = (fun _ -> None);
    target = Hashtbl.find handle_of center;
    new_nodes = List.init (Array.length host_of) (fun i -> i);
    step = 1;
  }

let run ~host ~palette t =
  let n = Graph.n host in
  let radius = t.locality ~n in
  let coloring = Colorings.Coloring.create n in
  Graph.iter_nodes host (fun v ->
      let view =
        ball_view ~host ~palette ~radius ~center:v ~outputs:(fun _ -> None)
      in
      let c = t.output ~n ~palette view in
      Colorings.Coloring.set coloring v c);
  coloring

let to_online t =
  let instantiate ~n ~palette ~oracle:_ (view : View.t) =
    let radius = t.locality ~n in
    (* Reconstruct the pristine T-ball view from the revealed region: the
       executor guarantees B(target, T) is fully revealed.  Fresh handles
       hide the rest of the region and all outputs. *)
    let nodes = View.ball view view.View.target radius in
    let handle_of = Hashtbl.create (List.length nodes * 2 + 1) in
    List.iteri (fun i h -> Hashtbl.replace handle_of h i) nodes;
    let old_of = Array.of_list nodes in
    let neighbors h =
      List.filter_map
        (fun w -> Hashtbl.find_opt handle_of w)
        (view.View.neighbors old_of.(h))
    in
    let sub =
      {
        View.n_total = view.View.n_total;
        palette = view.View.palette;
        node_count = (fun () -> Array.length old_of);
        neighbors;
        iter_neighbors = (fun h f -> List.iter f (neighbors h));
        mem_edge = (fun a b -> view.View.mem_edge old_of.(a) old_of.(b));
        id = (fun h -> view.View.id old_of.(h));
        output = (fun _ -> None);
        hint = (fun _ -> None);
        target = Hashtbl.find handle_of view.View.target;
        new_nodes = List.init (Array.length old_of) (fun i -> i);
        step = 1;
      }
    in
    t.output ~n ~palette sub
  in
  {
    Algorithm.name = "online<-local:" ^ t.name;
    locality = t.locality;
    instantiate = (fun ~n ~palette ~oracle -> instantiate ~n ~palette ~oracle);
  }

let grid_stripes grid =
  let stripe = Topology.Grid2d.canonical_3_coloring grid in
  {
    name = "grid-stripes";
    locality =
      (fun ~n:_ ->
        Topology.Grid2d.rows grid + Topology.Grid2d.cols grid);
    output =
      (fun ~n:_ ~palette:_ view ->
        (* Sees the whole graph; decode the host node from the identifier. *)
        stripe.(view.View.id view.View.target - 1));
  }
