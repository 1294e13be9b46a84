type node = int

type t = { size : int; adj : int array array; edge_count : int }

let n g = g.size
let m g = g.edge_count

let check_endpoint size v =
  if v < 0 || v >= size then
    invalid_arg (Printf.sprintf "Graph: node %d out of range [0,%d)" v size)

(* Ascending int sort in place: insertion sort on short rows (linear
   on the near-sorted rows the generators emit), a merge sort above
   [short_row], where insertion sort's quadratic worst case would show
   on a hub.  [Array.stable_sort] is the merge sort: on a 60,000-entry
   row it takes a third to a half of [Array.sort]'s heap sort. *)
let short_row = 32

let sort_row a =
  let len = Array.length a in
  if len > short_row then Array.stable_sort Int.compare a
  else
    for i = 1 to len - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

(* Drops repeats from a sorted row; copies only when there were some. *)
let dedup_row a =
  let len = Array.length a in
  let w = ref (min len 1) in
  for i = 1 to len - 1 do
    if a.(i) <> a.(!w - 1) then begin
      a.(!w) <- a.(i);
      incr w
    end
  done;
  if !w = len then a else Array.sub a 0 !w

let build ~n:size gen =
  if size < 0 then invalid_arg "Graph.build: negative size";
  (* Pass 1: check every arc, count degrees. *)
  let deg = Array.make size 0 in
  gen (fun u v ->
      check_endpoint size u;
      check_endpoint size v;
      if u = v then invalid_arg "Graph: self-loop";
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1);
  (* Pass 2: fill exact-size rows, [deg] now counting what each holds. *)
  let adj = Array.map (fun d -> Array.make d 0) deg in
  Array.fill deg 0 size 0;
  let place u v =
    let row = adj.(u) and i = deg.(u) in
    if i = Array.length row then invalid_arg "Graph.build: generator changed its arcs";
    row.(i) <- v;
    deg.(u) <- i + 1
  in
  gen (fun u v ->
      place u v;
      place v u);
  let edge_count = ref 0 in
  for v = 0 to size - 1 do
    let row = adj.(v) in
    if deg.(v) <> Array.length row then
      invalid_arg "Graph.build: generator changed its arcs";
    sort_row row;
    let row = dedup_row row in
    adj.(v) <- row;
    edge_count := !edge_count + Array.length row
  done;
  { size; adj; edge_count = !edge_count / 2 }

let create ~n:size ~edges =
  if size < 0 then invalid_arg "Graph.create: negative size";
  build ~n:size (fun add -> List.iter (fun (u, v) -> add u v) edges)

let of_adjacency raw =
  build ~n:(Array.length raw) (fun add ->
      Array.iteri (fun u nbrs -> Array.iter (fun v -> add u v) nbrs) raw)

let neighbors g v =
  check_endpoint g.size v;
  g.adj.(v)

let degree g v = Array.length (neighbors g v)

let max_degree g =
  Array.fold_left (fun acc a -> max acc (Array.length a)) 0 g.adj

let mem_edge g u v =
  check_endpoint g.size u;
  check_endpoint g.size v;
  let a = g.adj.(u) in
  let rec search lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = v then true
      else if a.(mid) < v then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length a)

let iter_edges g f =
  Array.iteri (fun u nbrs -> Array.iter (fun v -> if u < v then f u v) nbrs) g.adj

let fold_edges g ~init ~f =
  let acc = ref init in
  iter_edges g (fun u v -> acc := f !acc u v);
  !acc

let edges g = List.rev (fold_edges g ~init:[] ~f:(fun acc u v -> (u, v) :: acc))

let iter_nodes g f =
  for v = 0 to g.size - 1 do
    f v
  done

let fold_nodes g ~init ~f =
  let acc = ref init in
  iter_nodes g (fun v -> acc := f !acc v);
  !acc

let equal g h = g.size = h.size && g.adj = h.adj

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@," g.size g.edge_count;
  iter_edges g (fun u v -> Format.fprintf ppf "%d -- %d@," u v);
  Format.fprintf ppf "@]"

let empty size = build ~n:size ignore

let complete size =
  build ~n:size (fun add ->
      for u = 0 to size - 1 do
        for v = u + 1 to size - 1 do
          add u v
        done
      done)

let path_graph size =
  build ~n:size (fun add ->
      for i = 0 to size - 2 do
        add i (i + 1)
      done)

let cycle_graph size =
  if size < 3 then invalid_arg "Graph.cycle_graph: need at least 3 nodes";
  build ~n:size (fun add ->
      add (size - 1) 0;
      for i = 0 to size - 2 do
        add i (i + 1)
      done)

let union_disjoint g h =
  let off = g.size in
  build ~n:(g.size + h.size) (fun add ->
      iter_edges g add;
      iter_edges h (fun u v -> add (u + off) (v + off)))

let add_edges g es =
  build ~n:g.size (fun add ->
      List.iter (fun (u, v) -> add u v) es;
      iter_edges g add)

let is_clique g vs =
  let rec pairwise = function
    | [] -> true
    | v :: rest -> List.for_all (fun w -> mem_edge g v w) rest && pairwise rest
  in
  pairwise vs
