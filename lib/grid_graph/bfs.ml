let distances_from g sources =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  (* Each node enters the FIFO at most once. *)
  let queue = Array.make (max n 1) 0 in
  let head = ref 0 and tail = ref 0 in
  let push v d =
    dist.(v) <- d;
    queue.(!tail) <- v;
    incr tail
  in
  List.iter (fun s -> if dist.(s) = max_int then push s 0) sources;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du1 = dist.(u) + 1 in
    Graph.iter_neighbors g u (fun v -> if dist.(v) = max_int then push v du1)
  done;
  dist

let distance g u v =
  let dist = distances_from g [ u ] in
  dist.(v)

let ball g us t =
  let dist = distances_from g us in
  Graph.fold_nodes g ~init:[] ~f:(fun acc v ->
      if dist.(v) <= t then v :: acc else acc)
  |> List.rev

module Frontier = struct
  type t = {
    g : Graph.t;
    slack : int array;
    (* [slack.(v) = s >= 0] means every node within distance [s] of [v]
       has been revealed by some earlier [reveal]; [-1] means [v] itself
       is unrevealed.  This is the pruning certificate: a bounded BFS
       that reaches [v] with [rem] remaining steps can stop expanding
       when [slack.(v) >= rem]. *)
    mark : int array; (* epoch stamps: visited this traversal? *)
    dist : int array; (* distance from the current center, per epoch *)
    queue : int array; (* scratch FIFO; a bounded BFS enqueues each node at most once *)
    mutable epoch : int;
  }

  let create g =
    let n = Graph.n g in
    {
      g;
      slack = Array.make n (-1);
      mark = Array.make n 0;
      dist = Array.make n 0;
      queue = Array.make (max n 1) 0;
      epoch = 0;
    }

  let revealed t v = t.slack.(v) >= 0

  let ball t c r =
    t.epoch <- t.epoch + 1;
    let ep = t.epoch in
    let q = t.queue in
    let head = ref 0 and tail = ref 0 in
    t.mark.(c) <- ep;
    t.dist.(c) <- 0;
    q.(!tail) <- c;
    incr tail;
    while !head < !tail do
      let u = q.(!head) in
      incr head;
      let du = t.dist.(u) in
      if du < r then
        Graph.iter_neighbors t.g u (fun v ->
            if t.mark.(v) <> ep then begin
              t.mark.(v) <- ep;
              t.dist.(v) <- du + 1;
              q.(!tail) <- v;
              incr tail
            end)
    done;
    let out = Array.sub q 0 !tail in
    Array.sort compare out;
    Array.to_list out

  let reveal t c r =
    t.epoch <- t.epoch + 1;
    let ep = t.epoch in
    let q = t.queue in
    let head = ref 0 and tail = ref 0 in
    t.mark.(c) <- ep;
    t.dist.(c) <- 0;
    q.(!tail) <- c;
    incr tail;
    let fresh = ref [] in
    while !head < !tail do
      let u = q.(!head) in
      incr head;
      let rem = r - t.dist.(u) in
      if t.slack.(u) < 0 then fresh := u :: !fresh;
      if t.slack.(u) < rem then begin
        t.slack.(u) <- rem;
        if rem > 0 then
          let du1 = t.dist.(u) + 1 in
          Graph.iter_neighbors t.g u (fun v ->
              if t.mark.(v) <> ep then begin
                t.mark.(v) <- ep;
                t.dist.(v) <- du1;
                q.(!tail) <- v;
                incr tail
              end)
      end
    done;
    List.sort compare !fresh
end

let eccentricity g v =
  let dist = distances_from g [ v ] in
  Array.fold_left
    (fun acc d ->
      if d = max_int then invalid_arg "Bfs.eccentricity: disconnected graph"
      else max acc d)
    0 dist

let shortest_path g u v =
  let dist = distances_from g [ u ] in
  if dist.(v) = max_int then None
  else begin
    (* Walk back from [v] along strictly decreasing distances. *)
    let rec back w acc =
      if w = u then w :: acc
      else
        let prev =
          Array.fold_left
            (fun found x ->
              match found with
              | Some _ -> found
              | None -> if dist.(x) = dist.(w) - 1 then Some x else None)
            None (Graph.neighbors g w)
        in
        match prev with
        | Some p -> back p (w :: acc)
        | None -> assert false
    in
    Some (back v [])
  end
