let components_within g subset =
  let in_subset = Hashtbl.create (List.length subset * 2 + 1) in
  List.iter (fun v -> Hashtbl.replace in_subset v ()) subset;
  let visited = Hashtbl.create (List.length subset * 2 + 1) in
  let explore start =
    let queue = Queue.create () in
    Queue.add start queue;
    Hashtbl.replace visited start ();
    let comp = ref [] in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      comp := u :: !comp;
      Graph.iter_neighbors g u (fun v ->
          if Hashtbl.mem in_subset v && not (Hashtbl.mem visited v) then begin
            Hashtbl.replace visited v ();
            Queue.add v queue
          end)
    done;
    List.sort compare !comp
  in
  let sorted_subset = List.sort_uniq compare subset in
  List.filter_map
    (fun v -> if Hashtbl.mem visited v then None else Some (explore v))
    sorted_subset

let components g =
  components_within g (List.init (Graph.n g) (fun i -> i))

let component_of g v =
  match components_within g (Bfs.ball g [ v ] max_int) with
  | [ comp ] -> comp
  | comps -> (
      match List.find_opt (List.mem v) comps with
      | Some comp -> comp
      | None -> assert false)

let is_connected g =
  Graph.n g <= 1 || List.length (components g) = 1

let is_connected_subset g subset =
  match components_within g subset with [ _ ] -> true | _ -> false
