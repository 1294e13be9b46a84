let of_coloring ~parts ~radius coloring ~to_host =
  Models.Oracle.of_canonical_coloring ~parts ~radius ~to_host ~host_coloring:coloring

let grid_bipartition grid =
  let wrap = Topology.Grid2d.wrap grid in
  let rows = Topology.Grid2d.rows grid and cols = Topology.Grid2d.cols grid in
  let bipartite =
    match wrap with
    | Topology.Grid2d.Simple -> true
    | Topology.Grid2d.Cylindrical -> cols mod 2 = 0
    | Topology.Grid2d.Toroidal -> cols mod 2 = 0 && rows mod 2 = 0
  in
  if not bipartite then invalid_arg "Oracles.grid_bipartition: grid not bipartite";
  of_coloring ~parts:2 ~radius:0 (Topology.Grid2d.canonical_2_coloring grid)

let tri_grid t = of_coloring ~parts:3 ~radius:1 (Topology.Tri_grid.canonical_3_coloring t)

let clique_chain ~parts ~radius =
  let q = parts in
  if q < 2 then invalid_arg "Oracles.clique_chain: parts must be >= 2";
  let query (view : Models.View.t) handles =
    if handles = [] then [||]
    else begin
      (* Work over everything revealed around the query: the chain of
         cliques may run through previously revealed territory, all of
         which the algorithm legitimately knows. *)
      let seen = Hashtbl.create 256 in
      let queue = Queue.create () in
      List.iter
        (fun h ->
          if not (Hashtbl.mem seen h) then begin
            Hashtbl.replace seen h ();
            Queue.add h queue
          end)
        handles;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        List.iter
          (fun w ->
            if not (Hashtbl.mem seen w) then begin
              Hashtbl.replace seen w ();
              Queue.add w queue
            end)
          (view.Models.View.neighbors u)
      done;
      let nodes = Hashtbl.fold (fun v () acc -> v :: acc) seen [] in
      (* Enumerate q-cliques as sorted node lists rooted at their minimum. *)
      let cliques = ref [] in
      let rec extend clique candidates =
        if List.length clique = q then cliques := List.rev clique :: !cliques
        else
          List.iter
            (fun c ->
              if List.for_all (fun u -> view.Models.View.mem_edge u c) clique then
                extend (c :: clique)
                  (List.filter (fun d -> d > c) candidates))
            candidates
      in
      List.iter
        (fun v ->
          let bigger =
            List.filter (fun w -> w > v && Hashtbl.mem seen w)
              (view.Models.View.neighbors v)
          in
          extend [ v ] (List.sort compare bigger))
        nodes;
      let cliques = !cliques in
      (* Cliques through each node, for the shared-face walk. *)
      let through = Hashtbl.create 256 in
      List.iter
        (fun t ->
          List.iter
            (fun v ->
              Hashtbl.replace through v
                (t :: Option.value ~default:[] (Hashtbl.find_opt through v)))
            t)
        cliques;
      (* Chain parts outward from a seed clique on the smallest handle. *)
      let part = Hashtbl.create 256 in
      let seed_node = List.fold_left min (List.hd handles) handles in
      (match Hashtbl.find_opt through seed_node with
      | None | Some [] ->
          invalid_arg "Oracles.clique_chain: a queried node lies on no clique"
      | Some (t0 :: _) -> List.iteri (fun i v -> Hashtbl.replace part v i) t0);
      let tqueue = Queue.create () in
      let push_cliques_of v =
        List.iter (fun t -> Queue.add t tqueue)
          (Option.value ~default:[] (Hashtbl.find_opt through v))
      in
      Hashtbl.iter (fun v _ -> push_cliques_of v) part;
      let all_parts_sum = q * (q - 1) / 2 in
      let changed = ref true in
      while !changed do
        changed := false;
        let pending = Queue.create () in
        Queue.transfer tqueue pending;
        while not (Queue.is_empty pending) do
          let t = Queue.pop pending in
          let assigned = List.filter (fun v -> Hashtbl.mem part v) t in
          let unassigned = List.filter (fun v -> not (Hashtbl.mem part v)) t in
          match unassigned with
          | [ c ] when List.length assigned = q - 1 ->
              let sum =
                List.fold_left (fun acc v -> acc + Hashtbl.find part v) 0 assigned
              in
              let distinct =
                List.length (List.sort_uniq compare (List.map (Hashtbl.find part) assigned))
                = q - 1
              in
              if not distinct then
                invalid_arg
                  "Oracles.clique_chain: inconsistent clique chain (repeated part in a \
                   clique)";
              Hashtbl.replace part c (all_parts_sum - sum);
              changed := true;
              push_cliques_of c
          | [] ->
              let ps = List.map (Hashtbl.find part) t in
              if List.length (List.sort_uniq compare ps) <> q then
                invalid_arg
                  "Oracles.clique_chain: inconsistent clique chain (host lacks a unique \
                   partition)"
          | _ -> Queue.add t tqueue
        done
      done;
      let raw =
        Array.of_list
          (List.map
             (fun h ->
               match Hashtbl.find_opt part h with
               | Some p -> p
               | None ->
                   invalid_arg
                     "Oracles.clique_chain: clique chain does not reach a queried node")
             handles)
      in
      Models.Oracle.canonicalize raw handles
    end
  in
  { Models.Oracle.parts; radius; query }

let triangle_chain =
  let o = clique_chain ~parts:3 ~radius:1 in
  {
    o with
    Models.Oracle.query =
      (fun view handles ->
        try o.Models.Oracle.query view handles
        with Invalid_argument msg ->
          (* Keep the historical triangle-specific message for the common
             failure mode. *)
          if msg = "Oracles.clique_chain: a queried node lies on no clique" then
            invalid_arg "Oracles.triangle_chain: a queried node lies on no triangle"
          else invalid_arg msg);
  }

let ktree t =
  of_coloring
    ~parts:(Topology.Ktree.k t + 1)
    ~radius:1
    (Topology.Ktree.canonical_coloring t)

let layered t =
  of_coloring ~parts:(Topology.Layered.k t) ~radius:(Topology.Layered.k t)
    (Topology.Layered.canonical_k_coloring t)
