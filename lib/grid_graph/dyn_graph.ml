(* Node [v]'s neighbors occupy [pool.(off.(v)) .. pool.(off.(v) + deg.(v) - 1)],
   kept in the order documented in the interface.  A block starts with
   [first_block] slots and, once full, moves to the end of the pool at
   twice its size, so a node's abandoned blocks never add up to its
   current one. *)
type t = {
  mutable size : int;
  mutable off : int array;  (* node -> start of its block in [pool] *)
  mutable deg : int array;  (* node -> degree *)
  mutable hash : int array;  (* node -> [Hashtbl.hash node] *)
  mutable pool : int array;
  mutable used : int;  (* pool slots handed out *)
}

let first_block = 4

let create () =
  {
    size = 0;
    off = Array.make 16 0;
    deg = Array.make 16 0;
    hash = Array.make 16 0;
    pool = Array.make (16 * first_block) 0;
    used = 0;
  }

(* Hand out [len] fresh pool slots, doubling the pool as needed. *)
let alloc g len =
  let start = g.used in
  let need = start + len in
  if need > Array.length g.pool then begin
    let pool = Array.make (max need (2 * Array.length g.pool)) 0 in
    Array.blit g.pool 0 pool 0 start;
    g.pool <- pool
  end;
  g.used <- need;
  start

let add_node g =
  let v = g.size in
  if v = Array.length g.off then begin
    let grown a =
      let a' = Array.make (2 * v) 0 in
      Array.blit a 0 a' 0 v;
      a'
    in
    g.off <- grown g.off;
    g.deg <- grown g.deg;
    g.hash <- grown g.hash
  end;
  g.off.(v) <- alloc g first_block;
  g.hash.(v) <- Hashtbl.hash v;
  g.size <- v + 1;
  v

let check g v =
  if v < 0 || v >= g.size then invalid_arg "Dyn_graph: unknown handle"

(* Bucket count of a [Hashtbl.create 4] table holding [d] bindings: 16,
   doubled by the insertion that takes the size past twice the count. *)
let buckets d =
  let b = ref 16 in
  while d > 2 * !b do
    b := 2 * !b
  done;
  !b

(* Insert [x] into the sorted run [a.(o) .. a.(o + i - 1)] after every
   element whose bucket (hash land [mask]) is at least its own. *)
let place g a o i mask x =
  let h = g.hash in
  let bx = h.(x) land mask in
  let j = ref (o + i) in
  while !j > o && h.(a.(!j - 1)) land mask < bx do
    a.(!j) <- a.(!j - 1);
    decr j
  done;
  a.(!j) <- x

let insert g v w =
  let d = g.deg.(v) in
  if d >= first_block && d land (d - 1) = 0 then begin
    let start = alloc g (2 * d) in
    Array.blit g.pool g.off.(v) g.pool start d;
    g.off.(v) <- start
  end;
  let a = g.pool and o = g.off.(v) and b = buckets (d + 1) in
  if b <> buckets d then
    (* The table doubles its buckets on this insertion and each new
       bucket keeps its old relative order: re-sort stably. *)
    for i = 1 to d - 1 do
      place g a o i (b - 1) a.(o + i)
    done;
  place g a o d (b - 1) w;
  g.deg.(v) <- d + 1

let scan g u v =
  let a = g.pool and o = g.off.(u) in
  let rec go i = i >= 0 && (a.(o + i) = v || go (i - 1)) in
  go (g.deg.(u) - 1)

(* Adjacency is symmetric, so scan the shorter list. *)
let adjacent g u v = if g.deg.(u) <= g.deg.(v) then scan g u v else scan g v u

let add_edge g u v =
  check g u;
  check g v;
  if u = v then invalid_arg "Dyn_graph: self-loop";
  if not (adjacent g u v) then begin
    insert g u v;
    insert g v u
  end

let n g = g.size

let mem_edge g u v =
  check g u;
  check g v;
  adjacent g u v

let degree g v =
  check g v;
  g.deg.(v)

let neighbor g v i =
  check g v;
  if i < 0 || i >= g.deg.(v) then invalid_arg "Dyn_graph.neighbor: index out of range";
  g.pool.(g.off.(v) + i)

let neighbors g v =
  check g v;
  let a = g.pool and o = g.off.(v) in
  let rec go i acc = if i < 0 then acc else go (i - 1) (a.(o + i) :: acc) in
  go (g.deg.(v) - 1) []

let snapshot g =
  let edges = ref [] in
  for u = 0 to g.size - 1 do
    let o = g.off.(u) in
    for i = 0 to g.deg.(u) - 1 do
      let v = g.pool.(o + i) in
      if u < v then edges := (u, v) :: !edges
    done
  done;
  Graph.create ~n:g.size ~edges:!edges
