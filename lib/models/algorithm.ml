type instance = View.t -> int

type t = {
  name : string;
  locality : n:int -> int;
  instantiate : n:int -> palette:int -> oracle:Oracle.t option -> instance;
}

let stateless ?pure:_ ~name ~locality f =
  { name; locality; instantiate = (fun ~n:_ ~palette:_ ~oracle:_ -> f) }

let greedy_first_fit =
  let answer (view : View.t) =
    let used = ref [] in
    view.View.iter_neighbors view.View.target (fun w ->
        match view.View.output w with Some c -> used := c :: !used | None -> ());
    let rec first c = if List.mem c !used then first (c + 1) else c in
    let candidate = first 0 in
    if candidate < view.View.palette then candidate else 0
  in
  stateless ~name:"greedy-first-fit" ~locality:(fun ~n:_ -> 1) answer

let hint_parity =
  let answer (view : View.t) =
    match view.View.hint view.View.target with
    | Some (View.Grid_pos { row; col; _ }) -> (row + col) mod 2
    | Some (View.Gadget_pos _ | View.Layer_pos _) | None -> 0
  in
  stateless ~name:"hint-parity" ~locality:(fun ~n:_ -> 1) answer
