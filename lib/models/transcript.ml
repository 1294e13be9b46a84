type step = {
  index : int;
  target_id : int;
  new_nodes : int;
  region_size : int;
  color : int;
}

type t = { mutable entries : step list }

let create () = { entries = [] }
let steps t = List.rev t.entries

let wrap t (algo : Algorithm.t) =
  {
    algo with
    Algorithm.name = algo.Algorithm.name ^ "+transcript";
    instantiate =
      (fun ~n ~palette ~oracle ->
        let inner = algo.Algorithm.instantiate ~n ~palette ~oracle in
        fun view ->
          let color = inner view in
          t.entries <-
            {
              index = view.View.step;
              target_id = view.View.id view.View.target;
              new_nodes = List.length view.View.new_nodes;
              region_size = view.View.node_count ();
              color;
            }
            :: t.entries;
          color);
  }

let pp ppf t =
  List.iter
    (fun s ->
      Format.fprintf ppf "#%d id=%d +%d nodes (region %d) -> color %d@." s.index
        s.target_id s.new_nodes s.region_size s.color)
    (steps t)

let to_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "step,target_id,new_nodes,region_size,color\n";
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%d,%d\n" s.index s.target_id s.new_nodes
           s.region_size s.color))
    (steps t);
  Buffer.contents buf

let summary t =
  let ss = steps t in
  let total = List.length ss in
  let reveals = List.fold_left (fun acc s -> acc + s.new_nodes) 0 ss in
  let palette =
    List.sort_uniq compare (List.map (fun s -> s.color) ss) |> List.length
  in
  let final_region = match List.rev ss with last :: _ -> last.region_size | [] -> 0 in
  Printf.sprintf "%d steps, %d reveals, final region %d, %d distinct colors" total
    reveals final_region palette
