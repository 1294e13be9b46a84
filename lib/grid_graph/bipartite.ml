let two_color_with_conflict g =
  let size = Graph.n g in
  let side = Array.make size (-1) in
  let parent = Array.make size (-1) in
  let conflict = ref None in
  let queue = Queue.create () in
  (try
     for start = 0 to size - 1 do
       if side.(start) = -1 then begin
         side.(start) <- 0;
         Queue.add start queue;
         while not (Queue.is_empty queue) do
           let u = Queue.pop queue in
           Graph.iter_neighbors g u (fun v ->
               if side.(v) = -1 then begin
                 side.(v) <- 1 - side.(u);
                 parent.(v) <- u;
                 Queue.add v queue
               end
               else if side.(v) = side.(u) then begin
                 conflict := Some (u, v);
                 raise Exit
               end)
         done
       end
     done
   with Exit -> ());
  match !conflict with
  | None -> Ok side
  | Some (u, v) -> Error (u, v, parent)

let two_color g =
  match two_color_with_conflict g with Ok side -> Some side | Error _ -> None

let is_bipartite g = Option.is_some (two_color g)

let odd_cycle g =
  match two_color_with_conflict g with
  | Ok _ -> None
  | Error (u, v, parent) ->
      (* Walk both conflict endpoints up the BFS forest to their lowest
         common ancestor; the two branches plus the edge form an odd cycle. *)
      let ancestors w =
        let rec up w acc = if w = -1 then acc else up parent.(w) (w :: acc) in
        up w []
      in
      let pu = ancestors u and pv = ancestors v in
      let rec strip xs ys last =
        match (xs, ys) with
        | x :: xs', y :: ys' when x = y -> strip xs' ys' (Some x)
        | _ -> (xs, ys, last)
      in
      let tail_u, tail_v, lca = strip pu pv None in
      let lca = match lca with Some w -> w | None -> assert false in
      Some ((lca :: tail_u) @ List.rev tail_v)
