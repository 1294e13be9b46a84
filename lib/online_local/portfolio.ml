module A = Models.Algorithm
module V = Models.View

let greedy () = A.greedy_first_fit
let hint_parity () = A.hint_parity

let stripes3 () =
  A.stateless ~name:"stripes3" ~locality:(fun ~n:_ -> 1) (fun view ->
      match view.V.hint view.V.target with
      | Some (V.Grid_pos { row; col; _ }) -> (((row + col) mod 3) + 3) mod 3
      | Some (V.Gadget_pos _ | V.Layer_pos _) | None -> 0)

let gadget_rows () =
  A.stateless ~name:"gadget-rows" ~locality:(fun ~n:_ -> 1) (fun view ->
      match view.V.hint view.V.target with
      | Some (V.Gadget_pos { row; _ }) -> row
      | Some (V.Grid_pos _ | V.Layer_pos _) | None -> 0)

let ael ~t () = Kp1_coloring.ael_bipartite ~locality:(fun ~n:_ -> t) ()
let kp1 ~k ~t () = Kp1_coloring.make ~k ~locality:(fun ~n:_ -> t) ()

let grid_baselines () =
  [
    ("greedy", greedy ());
    ("hint-parity", hint_parity ());
    ("stripes3", stripes3 ());
    ("ael-T1", ael ~t:1 ());
    ("ael-T2", ael ~t:2 ());
    ("ael-T4", ael ~t:4 ());
  ]
