open Grid_graph

type t = {
  k : int;
  gadgets : int;
  seam : int option;
  graph : Graph.t;
}

let k t = t.k
let gadgets t = t.gadgets
let seam t = t.seam
let graph t = t.graph

let node t ~gadget ~row ~col =
  if
    gadget < 0 || gadget >= t.gadgets || row < 0 || row >= t.k || col < 0
    || col >= t.k
  then invalid_arg "Gadget.node: out of range";
  (((gadget * t.k) + row) * t.k) + col

let coords t v =
  let col = v mod t.k in
  let rest = v / t.k in
  (rest / t.k, rest mod t.k, col)

let create ?seam ~k ~gadgets () =
  if k < 2 then invalid_arg "Gadget.create: k must be >= 2";
  if gadgets < 1 then invalid_arg "Gadget.create: need at least one gadget";
  (match seam with
  | Some s when s < 0 || s >= gadgets - 1 ->
      invalid_arg "Gadget.create: seam out of range"
  | Some _ | None -> ());
  let id g i j = (((g * k) + i) * k) + j in
  (* Every node's arcs come in ascending order, which is the cheap case
     of Graph.build's row sort. *)
  let arcs add =
    for g = 0 to gadgets - 1 do
      (* Within the gadget: different row and different column. *)
      for i = 0 to k - 1 do
        for j = 0 to k - 1 do
          for i' = i + 1 to k - 1 do
            for j' = 0 to k - 1 do
              if j' <> j then add (id g i j) (id g i' j')
            done
          done
        done
      done;
      (* To the next gadget: same rule, except the transposed rule at the seam. *)
      if g + 1 < gadgets then begin
        let transposed = seam = Some g in
        for i = 0 to k - 1 do
          for j = 0 to k - 1 do
            for i' = 0 to k - 1 do
              for j' = 0 to k - 1 do
                let connect =
                  if transposed then i <> j' && j <> i' else i <> i' && j <> j'
                in
                if connect then add (id g i j) (id (g + 1) i' j')
              done
            done
          done
        done
      end
    done
  in
  { k; gadgets; seam; graph = Graph.build ~n:(gadgets * k * k) arcs }

let gadget_nodes t g =
  List.init (t.k * t.k) (fun p -> node t ~gadget:g ~row:(p / t.k) ~col:(p mod t.k))

let canonical_k_coloring t =
  Array.init (t.gadgets * t.k * t.k) (fun v ->
      let g, i, j = coords t v in
      match t.seam with Some s when g > s -> j | Some _ | None -> i)
