type 'a tree = Tree of 'a * 'a tree Seq.t

let root (Tree (x, _)) = x
let children (Tree (_, cs)) = cs

type 'a t = size:int -> Rng.t -> 'a tree

let generate g ~size rng = root (g ~size rng)

(* A Seq whose contents are computed only when forced. *)
let seq_delay (f : unit -> 'a Seq.t) : 'a Seq.t = fun () -> f () ()

let rec map_tree f (Tree (x, cs)) =
  Tree (f x, seq_delay (fun () -> Seq.map (map_tree f) cs))

let rec filter_tree pred (Tree (x, cs)) =
  Tree
    ( x,
      seq_delay (fun () ->
          Seq.filter_map
            (fun (Tree (y, _) as t) ->
              if pred y then Some (filter_tree pred t) else None)
            cs) )

let rec tree_map2 f ta tb =
  let (Tree (a, sa)) = ta and (Tree (b, sb)) = tb in
  Tree
    ( f a b,
      seq_delay (fun () ->
          Seq.append
            (Seq.map (fun ta' -> tree_map2 f ta' tb) sa)
            (Seq.map (fun tb' -> tree_map2 f ta tb') sb)) )

let return x : _ t = fun ~size:_ _ -> Tree (x, Seq.empty)
let map f (g : _ t) : _ t = fun ~size rng -> map_tree f (g ~size rng)

let map2 f (ga : _ t) (gb : _ t) : _ t =
 fun ~size rng ->
  let ra = Rng.split rng in
  let rb = Rng.split rng in
  tree_map2 f (ga ~size ra) (gb ~size rb)

let pair ga gb = map2 (fun a b -> (a, b)) ga gb
let map3 f ga gb gc = map2 (fun (a, b) c -> f a b c) (pair ga gb) gc

(* Monadic bind with integrated shrinking: shrink the outer tree first;
   every outer candidate re-runs [f] on a fresh copy of the recorded
   stream, so the inner value is re-generated deterministically and
   stays consistent with the shrunk outer value. *)
let bind (g : _ t) (f : _ -> _ t) : _ t =
 fun ~size rng ->
  let inner_rng = Rng.split rng in
  let rec go (Tree (a, sa)) =
    let (Tree (b, sb)) = f a ~size (Rng.copy inner_rng) in
    Tree (b, seq_delay (fun () -> Seq.append (Seq.map go sa) sb))
  in
  go (g ~size rng)

(* Shrink candidates between [origin] and [x], halving the distance:
   origin first (the biggest jump), then ever-closer values. *)
let towards ~origin x : int Seq.t =
  if x = origin then Seq.empty
  else
    let rec halves d () =
      if d = 0 then Seq.Nil else Seq.Cons (x - d, halves (d / 2))
    in
    halves (x - origin)

let rec int_tree ~origin x =
  Tree (x, seq_delay (fun () -> Seq.map (int_tree ~origin) (towards ~origin x)))

let int_range lo hi : int t =
  if lo > hi then invalid_arg "Gen.int_range: lo > hi";
  let origin = if lo <= 0 && 0 <= hi then 0 else if lo > 0 then lo else hi in
  fun ~size:_ rng -> int_tree ~origin (Rng.int_in rng lo hi)

let bool : bool t =
 fun ~size:_ rng ->
  if Rng.bool rng then Tree (true, Seq.return (Tree (false, Seq.empty)))
  else Tree (false, Seq.empty)

let frequency weighted : _ t =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 weighted in
  if weighted = [] || total <= 0 then
    invalid_arg "Gen.frequency: empty list or nonpositive total";
  fun ~size rng ->
    let pick = Rng.int rng total in
    let rec go acc = function
      | [] -> assert false
      | (w, g) :: rest -> if pick < acc + w then g ~size rng else go (acc + w) rest
    in
    go 0 weighted

let oneof_const xs : _ t =
  let n = List.length xs in
  if n = 0 then invalid_arg "Gen.oneof_const: empty list";
  map (List.nth xs) (int_range 0 (n - 1))

let sized f : _ t = fun ~size rng -> (f size) ~size rng

(* ------------------------- list shrinking ------------------------- *)

(* All ways to remove one consecutive chunk of [k] elements. *)
let removes k xs : 'a list Seq.t =
  let rec split_at k xs =
    if k = 0 then ([], xs)
    else
      match xs with
      | [] -> ([], [])
      | x :: rest ->
          let hd, tl = split_at (k - 1) rest in
          (x :: hd, tl)
  in
  let rec go xs () =
    let n = List.length xs in
    if k > n then Seq.Nil
    else
      let hd, tl = split_at k xs in
      Seq.Cons (tl, Seq.map (fun rest -> hd @ rest) (go tl))
  in
  go xs

(* Chunk removals at sizes n, n/2, n/4, ..., 1, never dropping the list
   below [min_len] elements. *)
let drops ~min_len trees : 'a tree list Seq.t =
  let n = List.length trees in
  let rec sizes k () = if k <= 0 then Seq.Nil else Seq.Cons (k, sizes (k / 2)) in
  sizes (n - min_len)
  |> Seq.concat_map (fun k ->
         Seq.filter (fun xs -> List.length xs >= min_len) (removes k trees))

(* One element replaced by one of its shrinks, every position. *)
let rec shrink_one trees : 'a tree list Seq.t =
  match trees with
  | [] -> Seq.empty
  | t :: rest ->
      seq_delay (fun () ->
          Seq.append
            (Seq.map (fun c -> c :: rest) (children t))
            (Seq.map (fun rest' -> t :: rest') (shrink_one rest)))

let rec interleave ~min_len trees : 'a list tree =
  Tree
    ( List.map root trees,
      seq_delay (fun () ->
          Seq.map (interleave ~min_len)
            (Seq.append (drops ~min_len trees) (shrink_one trees))) )

let list_trees_of n (elt : 'a t) ~size rng =
  List.init n (fun _ ->
      let r = Rng.split rng in
      elt ~size r)

let list_size n (elt : _ t) : _ t =
  if n < 0 then invalid_arg "Gen.list_size: negative length";
  fun ~size rng -> interleave ~min_len:n (list_trees_of n elt ~size rng)

let list ?(min_len = 0) ~max_len (elt : _ t) : _ t =
  if min_len < 0 || max_len < min_len then
    invalid_arg "Gen.list: need 0 <= min_len <= max_len";
  fun ~size rng ->
    let n = Rng.int_in rng min_len max_len in
    interleave ~min_len (list_trees_of n elt ~size rng)

(* ------------------------- permutations --------------------------- *)

(* Fisher-Yates, recording the swaps; shrinking undoes the latest
   remaining swap, so candidates walk back towards the input order. *)
let permutation (xs : 'a list) : 'a list t =
 fun ~size:_ rng ->
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let swaps = ref [] in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    if i <> j then swaps := (i, j) :: !swaps
  done;
  let apply swaps =
    let a = Array.copy arr in
    (* [swaps] is recorded outermost-last; re-apply in original order. *)
    List.iter
      (fun (i, j) ->
        let tmp = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- tmp)
      (List.rev swaps);
    Array.to_list a
  in
  let rec tree swaps =
    Tree
      ( apply swaps,
        seq_delay (fun () ->
            match swaps with
            | [] -> Seq.empty
            | _ :: rest -> Seq.return (tree rest)) )
  in
  tree !swaps

let such_that ?(max_tries = 100) pred (g : _ t) : _ t =
 fun ~size rng ->
  let rec attempt n =
    if n = 0 then
      failwith
        (Printf.sprintf "Gen.such_that: no candidate in %d tries" max_tries)
    else
      let r = Rng.split rng in
      let t = g ~size r in
      if pred (root t) then filter_tree pred t else attempt (n - 1)
  in
  attempt max_tries

let of_rng_fun f : _ t = fun ~size rng -> Tree (f ~size rng, Seq.empty)
