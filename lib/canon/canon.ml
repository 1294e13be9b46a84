type graph = { n : int; adj : int array array; colors : int array }

let make ~n ~edges ~colors =
  if Array.length colors <> n then
    invalid_arg "Canon.make: colors length must equal n";
  let sets = Array.make n [] in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Canon.make: edge endpoint out of range";
      if u <> v then begin
        sets.(u) <- v :: sets.(u);
        sets.(v) <- u :: sets.(v)
      end)
    edges;
  let adj =
    Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) sets
  in
  { n; adj; colors = Array.copy colors }

let of_graph g ~colors =
  let n = Grid_graph.Graph.n g in
  let adj = Array.init n (Grid_graph.Graph.neighbors g) in
  { n; adj; colors = Array.init n colors }

let of_dyn g ~colors =
  let n = Grid_graph.Dyn_graph.n g in
  let adj =
    Array.init n (fun v ->
        Array.of_list
          (List.sort_uniq compare (Grid_graph.Dyn_graph.neighbors g v)))
  in
  { n; adj; colors = Array.init n colors }

(* Rank an array of signatures by sorted signature order: the result
   assigns each vertex the index of its signature among the distinct
   signatures sorted ascending.  Ranking by signature *value* (not first
   occurrence) is what makes the refinement isomorphism-invariant. *)
let rank (sigs : 'a array) : int array * int =
  let distinct = List.sort_uniq compare (Array.to_list sigs) in
  let tbl = Hashtbl.create (List.length distinct) in
  List.iteri (fun i s -> Hashtbl.replace tbl s i) distinct;
  (Array.map (fun s -> Hashtbl.find tbl s) sigs, List.length distinct)

(* 1-WL refinement to fixpoint.  [classes] holds arbitrary int class
   values; the result is a re-ranked partition in [0..k-1] that no
   signature round can split further.  The partition only ever refines
   (same class + same neighbor multiset => same new class), so we stop
   as soon as the distinct count stops growing. *)
let refine g classes =
  let classes, k = rank classes in
  let classes = ref classes and k = ref k in
  let continue_ = ref true in
  while !continue_ do
    let cur = !classes in
    let sigs =
      Array.init g.n (fun v ->
          ( cur.(v),
            List.sort compare
              (Array.to_list (Array.map (fun w -> cur.(w)) g.adj.(v))) ))
    in
    let next, k' = rank sigs in
    if k' = !k then continue_ := false
    else begin
      classes := next;
      k := k'
    end
  done;
  (!classes, !k)

let refine_classes g = fst (refine g (Array.copy g.colors))

(* Smallest class index that still has >= 2 members, with its member
   list in ascending vertex order; None when the partition is discrete.
   The choice is made on class *index*, which is isomorphism-invariant. *)
let target_cell g classes k =
  if k = g.n then None
  else begin
    let count = Array.make k 0 in
    Array.iter (fun c -> count.(c) <- count.(c) + 1) classes;
    let rec first c = if count.(c) >= 2 then c else first (c + 1) in
    let cell = first 0 in
    let members = ref [] in
    for v = g.n - 1 downto 0 do
      if classes.(v) = cell then members := v :: !members
    done;
    Some !members
  end

let transport p g =
  let n = g.n in
  if Array.length p <> n then invalid_arg "Canon.transport: size mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n || seen.(i) then
        invalid_arg "Canon.transport: not a permutation";
      seen.(i) <- true)
    p;
  let colors = Array.make n 0 in
  let adj = Array.make n [||] in
  for v = 0 to n - 1 do
    colors.(p.(v)) <- g.colors.(v);
    adj.(p.(v)) <- Array.map (fun w -> p.(w)) g.adj.(v)
  done;
  Array.iter (fun a -> Array.sort compare a) adj;
  { n; adj; colors }

let serialize g =
  let b = Buffer.create (16 + (4 * g.n)) in
  Buffer.add_string b (string_of_int g.n);
  Buffer.add_char b ';';
  Array.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int c))
    g.colors;
  Buffer.add_char b ';';
  let first = ref true in
  Array.iteri
    (fun v nbrs ->
      Array.iter
        (fun w ->
          if v < w then begin
            if !first then first := false else Buffer.add_char b ',';
            Buffer.add_string b (string_of_int v);
            Buffer.add_char b '-';
            Buffer.add_string b (string_of_int w)
          end)
        nbrs)
    g.adj;
  Buffer.contents b

(* Individualization-refinement search: refine; if the partition is
   discrete it IS a permutation into canonical positions — keep the
   lexicographically smallest serialized form over all branches.
   Branching individualizes every member of the invariantly-chosen
   target cell, which is what makes the minimum canonical. *)
let search g =
  let best = ref None in
  let rec go classes =
    let classes, k = refine g classes in
    match target_cell g classes k with
    | None ->
        let s = serialize (transport classes g) in
        (match !best with
        | Some (s0, _) when s0 <= s -> ()
        | _ -> best := Some (s, Array.copy classes))
    | Some members ->
        List.iter
          (fun v ->
            let c = Array.copy classes in
            c.(v) <- g.n;
            go c)
          members
  in
  go (Array.copy g.colors);
  match !best with Some r -> r | None -> assert false

let certificate g =
  if g.n = 0 then [||] else snd (search g)

let canon g = if g.n = 0 then g else transport (snd (search g)) g
let key g = if g.n = 0 then "0;;" else fst (search g)
let digest g = Digest.to_hex (Digest.string (key g))
let iso_equal a b = a.n = b.n && String.equal (key a) (key b)
