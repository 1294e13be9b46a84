type node = int

(* Compressed sparse rows: node [v]'s neighbors are
   [tgt.(off.(v)) .. tgt.(off.(v + 1) - 1)], ascending, without repeats;
   [off] has [size + 1] entries and [tgt] one per arc, 2m in all. *)
type t = { size : int; off : int array; tgt : int array }

let n g = g.size
let m g = Array.length g.tgt / 2

let check_endpoint size v =
  if v < 0 || v >= size then
    invalid_arg (Printf.sprintf "Graph: node %d out of range [0,%d)" v size)

(* Ascending int sort of [a.(lo) .. a.(hi - 1)] in place: insertion sort
   on short rows (linear on the near-sorted rows the generators emit), a
   merge sort above [short_row], where insertion sort's quadratic worst
   case would show on a hub.  [Array.stable_sort] is the merge sort: on
   a 60,000-entry row it takes a third to a half of [Array.sort]'s heap
   sort. *)
let short_row = 32

let sort_range a lo hi =
  let len = hi - lo in
  if len > short_row then begin
    let row = Array.sub a lo len in
    Array.stable_sort Int.compare row;
    Array.blit row 0 a lo len
  end
  else
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

(* Drops the repeats from every sorted row, moving the rows down over
   the gaps, and trims [tgt]; [off] is rewritten in place. *)
let compact off tgt size =
  let w = ref 0 and lo = ref 0 in
  for v = 0 to size - 1 do
    let hi = off.(v + 1) in
    off.(v) <- !w;
    for i = !lo to hi - 1 do
      if i = !lo || tgt.(i) <> tgt.(!w - 1) then begin
        tgt.(!w) <- tgt.(i);
        incr w
      end
    done;
    lo := hi
  done;
  off.(size) <- !w;
  Array.sub tgt 0 !w

let build ~n:size gen =
  if size < 0 then invalid_arg "Graph.build: negative size";
  (* Pass 1: check every arc, count degrees into [off.(v + 1)]. *)
  let off = Array.make (size + 1) 0 in
  gen (fun u v ->
      check_endpoint size u;
      check_endpoint size v;
      if u = v then invalid_arg "Graph: self-loop";
      off.(u + 1) <- off.(u + 1) + 1;
      off.(v + 1) <- off.(v + 1) + 1);
  for v = 1 to size do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  (* Pass 2: fill the rows, [next.(v)] being row [v]'s next free slot. *)
  let tgt = Array.make off.(size) 0 in
  let next = Array.sub off 0 size in
  let place u v =
    let i = next.(u) in
    if i = off.(u + 1) then invalid_arg "Graph.build: generator changed its arcs";
    tgt.(i) <- v;
    next.(u) <- i + 1
  in
  gen (fun u v ->
      place u v;
      place v u);
  let repeats = ref false in
  for v = 0 to size - 1 do
    let lo = off.(v) and hi = off.(v + 1) in
    if next.(v) <> hi then invalid_arg "Graph.build: generator changed its arcs";
    sort_range tgt lo hi;
    for i = lo + 1 to hi - 1 do
      if tgt.(i) = tgt.(i - 1) then repeats := true
    done
  done;
  let tgt = if !repeats then compact off tgt size else tgt in
  { size; off; tgt }

let create ~n:size ~edges =
  if size < 0 then invalid_arg "Graph.create: negative size";
  build ~n:size (fun add -> List.iter (fun (u, v) -> add u v) edges)

let of_adjacency raw =
  build ~n:(Array.length raw) (fun add ->
      Array.iteri (fun u nbrs -> Array.iter (fun v -> add u v) nbrs) raw)

let degree g v =
  check_endpoint g.size v;
  g.off.(v + 1) - g.off.(v)

let neighbors g v =
  let d = degree g v in
  Array.sub g.tgt g.off.(v) d

let iter_neighbors g v f =
  check_endpoint g.size v;
  for i = g.off.(v) to g.off.(v + 1) - 1 do
    f g.tgt.(i)
  done

let for_all_neighbors g v p =
  check_endpoint g.size v;
  let hi = g.off.(v + 1) in
  let rec go i = i >= hi || (p g.tgt.(i) && go (i + 1)) in
  go g.off.(v)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.size - 1 do
    best := max !best (g.off.(v + 1) - g.off.(v))
  done;
  !best

let mem_edge g u v =
  check_endpoint g.size u;
  check_endpoint g.size v;
  let a = g.tgt in
  let rec search lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = v then true
      else if a.(mid) < v then search (mid + 1) hi
      else search lo mid
  in
  search g.off.(u) g.off.(u + 1)

let iter_edges g f =
  for u = 0 to g.size - 1 do
    for i = g.off.(u) to g.off.(u + 1) - 1 do
      let v = g.tgt.(i) in
      if u < v then f u v
    done
  done

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

let equal g h = g.off = h.off && g.tgt = h.tgt

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@," g.size (m g);
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
