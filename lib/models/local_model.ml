open Grid_graph

type t = {
  name : string;
  locality : n:int -> int;
  output : n:int -> palette:int -> View.t -> int;
}

(* The ball of [center] in [host], through a view of the whole host
   whose handles are the host's nodes. *)
let ball_view ~host ~palette ~radius ~center ~outputs =
  View.ball_view
    {
      View.n_total = Graph.n host;
      palette;
      node_count = (fun () -> Graph.n host);
      neighbors = (fun v -> Array.to_list (Graph.neighbors host v));
      iter_neighbors = Graph.iter_neighbors host;
      mem_edge = Graph.mem_edge host;
      id = (fun v -> v + 1);
      output = outputs;
      hint = (fun _ -> None);
      target = center;
      new_nodes = [];
      step = 0;
    }
    radius ~output:outputs

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

(* The executor guarantees that B(target, T) is fully revealed; the
   ball view's fresh handles hide the rest of the region and all
   outputs. *)
let to_online t =
  {
    Algorithm.name = "online<-local:" ^ t.name;
    locality = t.locality;
    instantiate =
      (fun ~n ~palette ~oracle:_ view ->
        t.output ~n ~palette (View.ball_view view (t.locality ~n) ~output:(fun _ -> None)));
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
