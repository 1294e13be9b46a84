open Grid_graph

type update =
  | Add_node of { edges : Graph.node list }
  | Add_edge of Graph.node * Graph.node
  | Remove_edge of Graph.node * Graph.node
  | Remove_node of Graph.node

type t = {
  name : string;
  locality : n:int -> int;
  react : n:int -> palette:int -> View.t -> (Graph.node * int) list;
}

type violation =
  | Improper of Graph.node * Graph.node
  | Unlabeled of Graph.node
  | Out_of_palette of { node : Graph.node; color : int }
  | Nonlocal_relabel of { change : Graph.node; node : Graph.node }

type outcome = {
  violation : (int * violation) option;
  labels : (Graph.node * int) list;
  steps : int;
  relabelings : int;
}

let pp_violation ppf = function
  | Improper (u, v) -> Format.fprintf ppf "monochromatic edge %d -- %d" u v
  | Unlabeled v -> Format.fprintf ppf "node %d left unlabeled" v
  | Out_of_palette { node; color } ->
      Format.fprintf ppf "node %d given out-of-palette color %d" node color
  | Nonlocal_relabel { change; node } ->
      Format.fprintf ppf "relabel of %d outside the ball of change %d" node change

(* Mutable dynamic graph supporting deletions (unlike Dyn_graph). *)
type world = {
  mutable next : int;
  adj : (int, (int, unit) Hashtbl.t) Hashtbl.t;  (* only live nodes present *)
  labels : (int, int) Hashtbl.t;
}

let live w v = Hashtbl.mem w.adj v

let neighbors w v =
  match Hashtbl.find_opt w.adj v with
  | None -> []
  | Some tbl -> Hashtbl.fold (fun x () acc -> x :: acc) tbl []

let add_node w =
  let v = w.next in
  w.next <- w.next + 1;
  Hashtbl.replace w.adj v (Hashtbl.create 4);
  v

let add_edge w u v =
  if not (live w u && live w v) then invalid_arg "Dynamic_local: dead endpoint";
  if u = v then invalid_arg "Dynamic_local: self-loop";
  Hashtbl.replace (Hashtbl.find w.adj u) v ();
  Hashtbl.replace (Hashtbl.find w.adj v) u ()

let remove_edge w u v =
  (match Hashtbl.find_opt w.adj u with Some t -> Hashtbl.remove t v | None -> ());
  match Hashtbl.find_opt w.adj v with Some t -> Hashtbl.remove t u | None -> ()

let remove_node w v =
  List.iter (fun u -> remove_edge w u v) (neighbors w v);
  Hashtbl.remove w.adj v;
  Hashtbl.remove w.labels v

let ball w center radius =
  let dist = Hashtbl.create 64 in
  if not (live w center) then []
  else begin
    Hashtbl.replace dist center 0;
    let queue = Queue.create () in
    Queue.add center queue;
    let out = ref [ center ] in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      let du = Hashtbl.find dist u in
      if du < radius then
        List.iter
          (fun x ->
            if not (Hashtbl.mem dist x) then begin
              Hashtbl.replace dist x (du + 1);
              Queue.add x queue;
              out := x :: !out
            end)
          (neighbors w u)
    done;
    List.sort compare !out
  end

(* The accessors, built once per run; [target] and [new_nodes] are set
   per change. *)
let make_view w ~n_hint ~palette =
  {
    View.n_total = n_hint;
    palette;
    node_count = (fun () -> w.next);
    neighbors = (fun v -> neighbors w v);
    iter_neighbors =
      (fun v f ->
        match Hashtbl.find_opt w.adj v with
        | None -> ()
        | Some tbl -> Hashtbl.iter (fun x () -> f x) tbl);
    mem_edge =
      (fun u v ->
        match Hashtbl.find_opt w.adj u with
        | Some t -> Hashtbl.mem t v
        | None -> false);
    id = (fun v -> v + 1);
    output = (fun v -> Hashtbl.find_opt w.labels v);
    hint = (fun _ -> None);
    target = -1;
    new_nodes = [];
    step = 0;
  }

let run ?(allow_deletions = false) ~n_hint ~palette ~algorithm ~updates () =
  let w = { next = 0; adj = Hashtbl.create 256; labels = Hashtbl.create 256 } in
  let base = make_view w ~n_hint ~palette in
  let radius = algorithm.locality ~n:n_hint in
  let violation = ref None in
  let relabelings = ref 0 in
  let steps = ref 0 in
  let audit step =
    if !violation = None then begin
      let check_node v =
        match Hashtbl.find_opt w.labels v with
        | None -> violation := Some (step, Unlabeled v)
        | Some c when c < 0 || c >= palette ->
            violation := Some (step, Out_of_palette { node = v; color = c })
        | Some c ->
            List.iter
              (fun u ->
                if !violation = None && Hashtbl.find_opt w.labels u = Some c && u < v
                then violation := Some (step, Improper (u, v)))
              (neighbors w v)
      in
      Hashtbl.iter (fun v _ -> if !violation = None then check_node v) w.adj
    end
  in
  let react step change ~new_nodes =
    let view = { base with View.target = change; new_nodes } in
    let changes = algorithm.react ~n:n_hint ~palette view in
    let allowed = ball w change radius in
    List.iter
      (fun (v, c) ->
        if !violation = None then
          if not (List.mem v allowed) then
            violation := Some (step, Nonlocal_relabel { change; node = v })
          else begin
            Hashtbl.replace w.labels v c;
            incr relabelings
          end)
      changes
  in
  let apply step = function
    | Add_node { edges } ->
        let v = add_node w in
        List.iter (fun u -> add_edge w u v) edges;
        react step v ~new_nodes:[ v ]
    | Add_edge (u, v) ->
        add_edge w u v;
        react step u ~new_nodes:[]
    | Remove_edge (u, v) ->
        if not allow_deletions then
          invalid_arg "Dynamic_local.run: deletions need ~allow_deletions:true";
        remove_edge w u v;
        if live w u then react step u ~new_nodes:[]
    | Remove_node v ->
        if not allow_deletions then
          invalid_arg "Dynamic_local.run: deletions need ~allow_deletions:true";
        let nbrs = neighbors w v in
        remove_node w v;
        (match nbrs with
        | u :: _ when live w u -> react step u ~new_nodes:[]
        | _ -> ())
  in
  (try
     List.iter
       (fun u ->
         if !violation = None then begin
           incr steps;
           apply !steps u;
           audit !steps
         end)
       updates
   with Invalid_argument _ as e -> raise e);
  {
    violation = !violation;
    labels =
      Hashtbl.fold (fun v _ acc ->
          match Hashtbl.find_opt w.labels v with
          | Some c -> (v, c) :: acc
          | None -> acc)
        w.adj []
      |> List.sort compare;
    steps = !steps;
    relabelings = !relabelings;
  }

let greedy_repair =
  {
    name = "dynamic-greedy-repair";
    locality = (fun ~n:_ -> 1);
    react =
      (fun ~n:_ ~palette view ->
        let target = view.View.target in
        let used =
          List.filter_map (fun u -> view.View.output u) (view.View.neighbors target)
        in
        let mine = view.View.output target in
        let conflict = match mine with Some c -> List.mem c used | None -> true in
        if not conflict then []
        else begin
          let rec first c = if List.mem c used then first (c + 1) else c in
          let c = first 0 in
          [ (target, if c < palette then c else 0) ]
        end);
  }

let bfs_repair ~radius =
  {
    name = Printf.sprintf "dynamic-bfs-repair(r=%d)" radius;
    locality = (fun ~n:_ -> radius);
    react =
      (fun ~n:_ ~palette view ->
        (* Recolor greedily in BFS order from the change, but only nodes
           that are currently in conflict (or unlabeled). *)
        let order = View.ball view view.View.target radius in
        let current = Hashtbl.create 64 in
        List.iter
          (fun v ->
            match view.View.output v with
            | Some c -> Hashtbl.replace current v c
            | None -> ())
          order;
        let color_of v = Hashtbl.find_opt current v in
        let changes = ref [] in
        List.iter
          (fun v ->
            let nbr_colors =
              List.filter_map color_of (view.View.neighbors v)
            in
            let conflicted =
              match color_of v with
              | None -> true
              | Some c -> List.mem c nbr_colors
            in
            if conflicted then begin
              let rec first c = if List.mem c nbr_colors then first (c + 1) else c in
              let c = first 0 in
              let c = if c < palette then c else 0 in
              Hashtbl.replace current v c;
              changes := (v, c) :: !changes
            end)
          order;
        List.rev !changes);
  }

let incremental_grid_updates grid ~order =
  let rank = Hashtbl.create 256 in
  List.mapi
    (fun i host ->
      let edges =
        Array.to_list (Graph.neighbors (Topology.Grid2d.graph grid) host)
        |> List.filter_map (fun u -> Hashtbl.find_opt rank u)
      in
      Hashtbl.replace rank host i;
      Add_node { edges })
    order

let relabel_to_host ~order labels =
  let host_of = Array.of_list order in
  List.map (fun (rank, c) -> (host_of.(rank), c)) labels
