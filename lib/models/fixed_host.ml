open Grid_graph

type t = {
  host : Graph.t;
  palette : int;
  mutable radius : int;  (* locality + oracle radius; fixed after [start] *)
  mutable instance : Algorithm.instance;  (* fixed after [start] *)
  view : View.t;  (* the accessors; a step copies them with its own fields *)
  region : Dyn_graph.t;  (* the first [wired] steps' handles and edges *)
  mutable wired : int;  (* steps wired into [region] *)
  frontier : Bfs.Frontier.t;  (* incremental revealed-view state *)
  handle_of_host : int array;  (* host node -> handle; -1 = unrevealed *)
  mutable count : int;  (* handles allocated: the revealed region's size *)
  mutable host_of_handle : Graph.node array;  (* grown by doubling *)
  mutable targets : Graph.node array;  (* step s's presented node at s - 1; grown by doubling *)
  mutable first_fresh : int array;  (* step s's first fresh handle at s - 1; grown with [targets] *)
  coloring : Colorings.Coloring.t;
  presented_set : Packed.Set.t;
  mutable steps : int;
  mutable first_violation : Run_stats.violation option;
}

let to_host t handle = t.host_of_handle.(handle)

(* [a] at twice its length, the new slots -1. *)
let doubled a =
  let bigger = Array.make (max 16 (2 * Array.length a)) (-1) in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let record_handle t host_node =
  let handle = t.count in
  if handle >= Array.length t.host_of_handle then
    t.host_of_handle <- doubled t.host_of_handle;
  t.host_of_handle.(handle) <- host_node;
  t.handle_of_host.(host_node) <- handle;
  t.count <- handle + 1;
  handle

(* The revealed region is the host's subgraph induced on the revealed
   nodes, so [iter_neighbors] and [mem_edge] read the host rows through
   the handle map.  Their error for an unknown handle is the region
   graph's. *)
let check t h = if h < 0 || h >= t.count then invalid_arg "Dyn_graph: unknown handle"

let iter_neighbors t h f =
  check t h;
  Graph.iter_neighbors t.host t.host_of_handle.(h) (fun w ->
      let hw = t.handle_of_host.(w) in
      if hw >= 0 then f hw)

let mem_edge t a b =
  check t a;
  check t b;
  Graph.mem_edge t.host t.host_of_handle.(a) t.host_of_handle.(b)

(* [neighbors]' order is [region]'s, which depends only on the order its
   edges were added (dyn_graph.mli).  So the region is wired on the
   first call that needs it, step by step as if each step had wired it
   on reveal: the step's fresh handles in order, each over its host
   row, to every handle revealed by the end of that step. *)
let wire t =
  for s = t.wired + 1 to t.steps do
    let lo = t.first_fresh.(s - 1) in
    let hi = if s < t.steps then t.first_fresh.(s) else t.count in
    for _ = lo to hi - 1 do
      ignore (Dyn_graph.add_node t.region : int)
    done;
    for h = lo to hi - 1 do
      Graph.iter_neighbors t.host t.host_of_handle.(h) (fun w ->
          let hw = t.handle_of_host.(w) in
          if hw >= 0 && hw < hi then Dyn_graph.add_edge t.region h hw)
    done
  done;
  t.wired <- t.steps

let neighbors t h =
  if t.wired < t.steps then wire t;
  Dyn_graph.neighbors t.region h

let start ?hints ?oracle ~host ~palette ~algorithm () =
  let n = Graph.n host in
  let hints = match hints with Some f -> f | None -> fun _ -> None in
  let locality = algorithm.Algorithm.locality ~n in
  let rec t =
    {
      host;
      palette;
      radius = locality;
      instance = (fun _ -> assert false);
      view =
        {
          View.n_total = n;
          palette;
          node_count = (fun () -> t.count);
          neighbors = (fun h -> neighbors t h);
          iter_neighbors = (fun h f -> iter_neighbors t h f);
          mem_edge = (fun a b -> mem_edge t a b);
          id = (fun h -> to_host t h + 1);
          output = (fun h -> Colorings.Coloring.get t.coloring (to_host t h));
          hint = (fun h -> hints (to_host t h));
          target = -1;
          new_nodes = [];
          step = 0;
        };
      region = Dyn_graph.create ();
      wired = 0;
      frontier = Bfs.Frontier.create host;
      handle_of_host = Array.make (max n 1) (-1);
      count = 0;
      host_of_handle = Array.make 16 (-1);
      targets = Array.make 16 (-1);
      first_fresh = Array.make 16 0;
      coloring = Colorings.Coloring.create n;
      presented_set = Packed.Set.create (max n 1);
      steps = 0;
      first_violation = None;
    }
  in
  let oracle = Option.map (fun mk -> mk ~to_host:(to_host t)) oracle in
  t.radius <- locality + (match oracle with Some o -> o.Oracle.radius | None -> 0);
  t.instance <- algorithm.Algorithm.instantiate ~n ~palette ~oracle;
  t

(* Extend the region from the previous frontier; returns the new handles
   in order.  [Frontier.reveal] yields exactly the nodes of
   [B(center, radius)] not yet revealed, ascending, at O(frontier) cost. *)
let reveal_ball t center =
  List.map (record_handle t) (Bfs.Frontier.reveal t.frontier center t.radius)

(* An order entry outside the host is an adversary bug, certified before
   any per-node table is indexed with it. *)
let in_host t v = v >= 0 && v < Graph.n t.host

let present t v =
  if not (in_host t v) then
    raise
      (Run_stats.Dishonest_transcript
         (Printf.sprintf "Fixed_host.present: node %d outside [0, %d)" v
            (Graph.n t.host)));
  if Packed.Set.mem t.presented_set v then
    raise
      (Run_stats.Dishonest_transcript
         (Printf.sprintf "Fixed_host.present: node %d presented twice" v));
  Packed.Set.add t.presented_set v;
  if t.steps = Array.length t.targets then begin
    t.targets <- doubled t.targets;
    t.first_fresh <- doubled t.first_fresh
  end;
  t.targets.(t.steps) <- v;
  t.first_fresh.(t.steps) <- t.count;
  t.steps <- t.steps + 1;
  let new_nodes = reveal_ball t v in
  if Obs.Trace.on () then
    Obs.Trace.emit
      (Obs.Trace.Step
         { executor = "fixed_host"; step = t.steps; target = v; revealed = t.count });
  let target = t.handle_of_host.(v) in
  let color =
    match t.instance { t.view with target; new_nodes; step = t.steps } with
    | c -> c
    | exception ((Stack_overflow | Out_of_memory | Sys.Break) as e) -> raise e
    | exception exn ->
        let backtrace = Printexc.get_backtrace () in
        if t.first_violation = None then
          t.first_violation <-
            Some
              (Run_stats.Algorithm_failure
                 { node = v; message = Printexc.to_string exn; backtrace });
        -1
  in
  (if t.first_violation = None then
     if color < 0 || color >= t.palette then
       t.first_violation <- Some (Run_stats.Palette_overflow { node = v; color })
     else Colorings.Coloring.set t.coloring v color);
  color

let coloring t = t.coloring

let revealed_host_nodes t =
  List.init t.count (fun h -> t.host_of_handle.(h))

let dishonest fmt = Printf.ksprintf (fun m -> raise (Run_stats.Dishonest_transcript m)) fmt

(* The replay audit.  It reads the executor's transcript (targets,
   fresh-handle boundaries, handle maps, region graph) and recomputes
   every ball with its own bounded BFS over the host, so it shares no
   code with [Bfs.Frontier] or [Dyn_graph]'s bookkeeping. *)
let check_transcript t ~radius =
  let n = Graph.n t.host and count = t.count in
  (* The handle map must be a bijection onto the revealed host nodes. *)
  let handle = Array.make n (-1) in
  for h = 0 to count - 1 do
    let v = t.host_of_handle.(h) in
    if v < 0 || v >= n then dishonest "validate: handle %d maps to %d, outside the host" h v;
    if handle.(v) >= 0 then dishonest "validate: host node %d has two handles" v;
    handle.(v) <- h
  done;
  for v = 0 to n - 1 do
    if t.handle_of_host.(v) <> handle.(v) then
      dishonest "validate: host node %d maps to handle %d, not %d" v t.handle_of_host.(v)
        handle.(v)
  done;
  (* The region graph is the host's subgraph induced on them. *)
  for h = 0 to count - 1 do
    let expected = ref [] in
    Graph.iter_neighbors t.host t.host_of_handle.(h) (fun w ->
        if handle.(w) >= 0 then expected := handle.(w) :: !expected);
    if List.sort compare !expected <> List.sort compare (neighbors t h)
    then dishonest "validate: handle %d's region neighbors are not its host neighbors" h
  done;
  (* [first.(v)]: the first step whose radius-[radius] ball holds [v],
     0 for none.  One bounded BFS per step, level by level, stamped
     with the step. *)
  let first = Array.make n 0 and stamp = Array.make n 0 in
  let queue = Array.make (max n 1) 0 in
  for s = 1 to t.steps do
    let c = t.targets.(s - 1) in
    stamp.(c) <- s;
    queue.(0) <- c;
    let lo = ref 0 and hi = ref 1 and depth = ref 0 in
    while !depth < radius && !lo < !hi do
      let tail = ref !hi in
      for i = !lo to !hi - 1 do
        Graph.iter_neighbors t.host queue.(i) (fun w ->
            if stamp.(w) <> s then begin
              stamp.(w) <- s;
              queue.(!tail) <- w;
              incr tail
            end)
      done;
      lo := !hi;
      hi := !tail;
      incr depth
    done;
    for i = 0 to !hi - 1 do
      let w = queue.(i) in
      if first.(w) = 0 then first.(w) <- s
    done
  done;
  (* Each node was revealed exactly at the first ball that holds it. *)
  let revealed_at = Array.make count 0 in
  for s = 1 to t.steps do
    let stop = if s < t.steps then t.first_fresh.(s) else count in
    for h = t.first_fresh.(s - 1) to stop - 1 do
      revealed_at.(h) <- s
    done
  done;
  for v = 0 to n - 1 do
    let h = handle.(v) in
    if h < 0 then begin
      if first.(v) > 0 then dishonest "validate: step %d's ball misses node %d" first.(v) v
    end
    else if first.(v) = 0 then
      dishonest "validate: node %d revealed at step %d outside every ball" v revealed_at.(h)
    else if revealed_at.(h) <> first.(v) then
      dishonest "validate: node %d revealed at step %d but first containing ball is step %d"
        v revealed_at.(h) first.(v)
  done

let validate ?radius t =
  let radius = Option.value radius ~default:t.radius in
  match check_transcript t ~radius with
  | () -> ()
  | exception (Run_stats.Dishonest_transcript msg as e) ->
      if Obs.Trace.on () then
        Obs.Trace.emit (Obs.Trace.Audit { executor = "fixed_host"; ok = false; detail = msg });
      raise e

let audit t =
  let violation =
    match t.first_violation with
    | Some _ as v -> v
    | None ->
        Option.map
          (fun (u, v) -> Run_stats.Monochromatic_edge (u, v))
          (Colorings.Coloring.find_monochromatic_edge t.host t.coloring)
  in
  if Obs.Trace.on () then
    Obs.Trace.emit
      (Obs.Trace.Audit
         {
           executor = "fixed_host";
           (* Honest unless the order repeated a node: a lost game is
              the adversary's intended result, not an anomaly. *)
           ok =
             (match violation with
             | Some (Run_stats.Repeated_presentation _) -> false
             | _ -> true);
           detail =
             (match violation with
             | None -> ""
             | Some v -> Format.asprintf "%a" Run_stats.pp_violation v);
         });
  if Obs.Stats.on () then begin
    Obs.Stats.observe "fixed_host.presented" t.steps;
    Obs.Stats.observe "fixed_host.revealed" t.count
  end;
  {
    Run_stats.coloring = t.coloring;
    violation;
    presented = t.steps;
    revealed = t.count;
  }

let run ?validate:(replay = false) ?hints ?oracle ~host ~palette ~algorithm ~order () =
  let t = start ?hints ?oracle ~host ~palette ~algorithm () in
  let rec go = function
    | [] -> ()
    | v :: rest ->
        if in_host t v && Packed.Set.mem t.presented_set v then
          (* A duplicated reveal order is an adversary bug: certify it
             rather than letting [present]'s invalid_arg abort the run. *)
          t.first_violation <- Some (Run_stats.Repeated_presentation v)
        else begin
          let (_ : int) = present t v in
          if t.first_violation = None then go rest
        end
  in
  go order;
  if replay then validate t;
  audit t

let stopped o =
  match o.Run_stats.violation with
  | Some (Run_stats.Monochromatic_edge _) | None -> false
  | Some _ -> true

let orders ~all = function
  | `Sequential -> List.init (Graph.n all) (fun i -> i)
  | `Random seed ->
      let state = Random.State.make [| seed; Graph.n all |] in
      let a = Array.init (Graph.n all) (fun i -> i) in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int state (i + 1) in
        let tmp = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- tmp
      done;
      Array.to_list a
