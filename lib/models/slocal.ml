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
  {
    Algorithm.name = "online<-slocal:" ^ t.name;
    locality = t.locality;
    instantiate =
      (fun ~n ~palette ~oracle:_ view ->
        t.output ~n ~palette (View.ball_view view (t.locality ~n) ~output:view.View.output));
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
