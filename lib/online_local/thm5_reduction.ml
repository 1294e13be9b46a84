module V = Models.View

(* Mirror of G_{k+1} built over the handles of A''s view of G_k.  An
   A-handle denotes either a main node (a G_k handle) or its twin. *)
type mirror = {
  mutable back : (int * bool) array;  (* A-handle -> (G_k handle, is_twin) *)
  mutable count : int;
  fwd : (int * bool, int) Hashtbl.t;  (* (G_k handle, is_twin) -> A-handle *)
  outputs : (int, int) Hashtbl.t;  (* A-handle -> color *)
  mutable current : V.t option;  (* A''s view at the current step *)
  mutable steps : int;
}

let mirror_create () =
  {
    back = Array.make 64 (0, false);
    count = 0;
    fwd = Hashtbl.create 256;
    outputs = Hashtbl.create 256;
    current = None;
    steps = 0;
  }

let current_view m =
  match m.current with
  | Some v -> v
  | None -> invalid_arg "thm5: simulation used before any step"

let lookup m key = Hashtbl.find_opt m.fwd key

let allocate m key =
  match lookup m key with
  | Some a -> (a, false)
  | None ->
      if m.count >= Array.length m.back then begin
        let bigger = Array.make (2 * Array.length m.back) (0, false) in
        Array.blit m.back 0 bigger 0 m.count;
        m.back <- bigger
      end;
      let a = m.count in
      m.back.(a) <- key;
      m.count <- m.count + 1;
      Hashtbl.replace m.fwd key a;
      (a, true)

(* Neighbors in G_{k+1}, as A-handles, restricted to what A has been
   shown (i.e. allocated A-handles). *)
let a_neighbors m a =
  let view = current_view m in
  let h, is_twin = m.back.(a) in
  let mains = view.V.neighbors h in
  let candidates =
    if is_twin then (h, false) :: List.map (fun x -> (x, false)) mains
    else
      ((h, true) :: List.map (fun x -> (x, false)) mains)
      @ List.map (fun x -> (x, true)) mains
  in
  List.filter_map (lookup m) candidates

let make_a_view m ~n2 ~palette_a ~target ~new_nodes =
  let view = current_view m in
  {
    V.n_total = n2;
    palette = palette_a;
    node_count = (fun () -> m.count);
    neighbors = (fun a -> a_neighbors m a);
    iter_neighbors = (fun a f -> List.iter f (a_neighbors m a));
    mem_edge =
      (fun a b ->
        let h1, t1 = m.back.(a) and h2, t2 = m.back.(b) in
        match (t1, t2) with
        | false, false -> view.V.mem_edge h1 h2
        | true, true -> false  (* the twin layer is independent *)
        | true, false | false, true ->
            h1 = h2 || view.V.mem_edge h1 h2);
    id =
      (fun a ->
        let h, t = m.back.(a) in
        (2 * view.V.id h) + Bool.to_int t);
    output = (fun a -> Hashtbl.find_opt m.outputs a);
    hint = (fun _ -> None);
    target;
    new_nodes;
    step = m.steps;
  }

(* Present one G_{k+1} node to A.  [radius] is A's locality; the ball of
   a main (radius >= 1) or of a twin (radius >= 2) is mains+twins of the
   G_k ball; a twin at radius 1 sees only itself, its main and the
   main's neighbors. *)
let present_to_a m ~instance ~n2 ~palette_a ~radius key =
  let view = current_view m in
  let h, is_twin = key in
  m.steps <- m.steps + 1;
  let ball = V.ball view h radius in
  let reveal_keys =
    if not is_twin then
      List.concat_map (fun x -> [ (x, false); (x, true) ]) ball
    else if radius >= 2 then
      List.concat_map (fun x -> [ (x, false); (x, true) ]) ball
    else
      (h, true) :: (h, false)
      :: List.map (fun x -> (x, false)) (view.V.neighbors h)
  in
  let fresh = ref [] in
  List.iter
    (fun k' ->
      let a, is_new = allocate m k' in
      if is_new then fresh := a :: !fresh)
    (List.sort compare reveal_keys);
  let new_nodes = List.sort compare !fresh in
  let target =
    match lookup m key with Some a -> a | None -> assert false
  in
  let color = instance (make_a_view m ~n2 ~palette_a ~target ~new_nodes) in
  Hashtbl.replace m.outputs target color;
  color

let lift_oracle m inner =
  let parts = inner.Models.Oracle.parts in
  let query _a_view a_handles =
    let view = current_view m in
    let mains =
      List.filter_map
        (fun a ->
          let h, t = m.back.(a) in
          if t then None else Some h)
        a_handles
    in
    let main_parts =
      if mains = [] then [||] else inner.Models.Oracle.query view mains
    in
    let part_of_main = Hashtbl.create 64 in
    List.iteri (fun i h -> Hashtbl.replace part_of_main h main_parts.(i)) mains;
    let raw =
      Array.of_list
        (List.map
           (fun a ->
             let h, t = m.back.(a) in
             if t then parts  (* the twin layer is a fresh part *)
             else Hashtbl.find part_of_main h)
           a_handles)
    in
    Models.Oracle.canonicalize raw a_handles
  in
  { Models.Oracle.parts = parts + 1; radius = inner.Models.Oracle.radius; query }

let reduce ~inner =
  {
    Models.Algorithm.name = "thm5-reduce:" ^ inner.Models.Algorithm.name;
    locality = (fun ~n -> inner.Models.Algorithm.locality ~n:(2 * n));
    instantiate =
      (fun ~n ~palette ~oracle ->
        let n2 = 2 * n in
        let palette_a = palette + 1 in
        let m = mirror_create () in
        let oracle_a = Option.map (fun o -> lift_oracle m o) oracle in
        let instance =
          inner.Models.Algorithm.instantiate ~n:n2 ~palette:palette_a
            ~oracle:oracle_a
        in
        let radius = inner.Models.Algorithm.locality ~n:n2 in
        fun view ->
          m.current <- Some view;
          let target = view.V.target in
          let c =
            match Hashtbl.find_opt m.fwd (target, false) with
            | Some a when Hashtbl.mem m.outputs a -> Hashtbl.find m.outputs a
            | Some _ | None ->
                present_to_a m ~instance ~n2 ~palette_a ~radius (target, false)
          in
          if c < palette && c >= 0 then c
          else if c = palette then
            (* A used the extra color on the main; the twin's color is a
               sound answer for G_k (it is adjacent to everything the
               main is adjacent to, plus the main itself). *)
            present_to_a m ~instance ~n2 ~palette_a ~radius (target, true)
          else c (* out-of-palette answer: pass the violation through *));
  }
