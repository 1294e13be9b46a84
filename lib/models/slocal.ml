open Grid_graph

type t = {
  name : string;
  locality : n:int -> int;
  output : n:int -> palette:int -> View.t -> int;
}

let run ~host ~palette ~order t =
  let n = Graph.n host in
  let radius = t.locality ~n in
  let coloring = Colorings.Coloring.create n in
  List.iter
    (fun v ->
      let view =
        Local_model.ball_view ~host ~palette ~radius ~center:v
          ~outputs:(fun w -> Colorings.Coloring.get coloring w)
      in
      let c = t.output ~n ~palette view in
      Colorings.Coloring.set coloring v c)
    order;
  coloring

let to_online t =
  let instantiate ~n ~palette ~oracle:_ (view : View.t) =
    let radius = t.locality ~n in
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
        output = (fun h -> view.View.output old_of.(h));
        hint = (fun _ -> None);
        target = Hashtbl.find handle_of view.View.target;
        new_nodes = List.init (Array.length old_of) (fun i -> i);
        step = 1;
      }
    in
    t.output ~n ~palette sub
  in
  {
    Algorithm.name = "online<-slocal:" ^ t.name;
    locality = t.locality;
    instantiate = (fun ~n ~palette ~oracle -> instantiate ~n ~palette ~oracle);
  }

let greedy =
  {
    name = "slocal-greedy";
    locality = (fun ~n:_ -> 1);
    output =
      (fun ~n:_ ~palette (view : View.t) ->
        let used =
          List.filter_map
            (fun w -> view.View.output w)
            (view.View.neighbors view.View.target)
        in
        let rec first c = if List.mem c used then first (c + 1) else c in
        let candidate = first 0 in
        if candidate < palette then candidate else 0);
  }
