type report = {
  result : Models.Run_stats.result;
  first_class : Colorings.Colorful.classification option;
  last_class : Colorings.Colorful.classification option;
  seam_used : bool;
  presented : int;
  revealed : int;
  preconditions_met : bool;
}

let class_name = function
  | Colorings.Colorful.Row_colorful -> "row"
  | Colorings.Colorful.Column_colorful -> "col"
  | Colorings.Colorful.Both -> "both"
  | Colorings.Colorful.Neither -> "neither"

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>result=%a first=%s last=%s seam=%b presented=%d preconditions=%b@]"
    Models.Run_stats.pp_result r.result
    (match r.first_class with None -> "-" | Some c -> class_name c)
    (match r.last_class with None -> "-" | Some c -> class_name c)
    r.seam_used r.presented r.preconditions_met

let run ?validate ~k ~gadgets ~algorithm () =
  if k < 3 then invalid_arg "thm3: k must be >= 3";
  if gadgets < 3 then invalid_arg "thm3: need at least 3 gadgets";
  let n = gadgets * k * k in
  let palette = (2 * k) - 2 in
  let t = algorithm.Models.Algorithm.locality ~n in
  let seam = gadgets / 2 in
  (* Gadget l sits at chain distance |l - l'| from gadget l', so the
     T-ball of gadget 0 touches gadgets 0..T and the T-ball of the last
     touches gadgets >= gadgets-1-T; they must miss each other and the
     seam. *)
  let preconditions_met = t < seam && t < gadgets - 2 - seam in
  let first = 0 and last = gadgets - 1 in
  let plain = Topology.Gadget.create ~k ~gadgets () in
  let order_for chain =
    let g l = Topology.Gadget.gadget_nodes chain l in
    let prefix = g first @ g last in
    let middle =
      List.concat_map (fun l -> g l) (List.init (gadgets - 2) (fun i -> i + 1))
    in
    (prefix, prefix @ middle)
  in
  let run_on chain order =
    (* Raw gadget coordinates as hints: identical on the plain and seam
       hosts (which differ by the gadget transposition symmetry), so the
       probe-and-replay determinism is preserved. *)
    let hints v =
      let g, i, j = Topology.Gadget.coords chain v in
      Some (Models.View.Gadget_pos { frame = 0; gadget = g; row = i; col = j })
    in
    Models.Fixed_host.run ?validate ~hints
      ~host:(Topology.Gadget.graph chain)
      ~palette ~algorithm ~order ()
  in
  let prefix, full_order = order_for plain in
  let classify chain coloring l =
    Colorings.Colorful.classify (Colorings.Colorful.matrix_of_gadget chain coloring ~gadget:l)
  in
  (* Above the threshold, probe: color the two end gadgets on the plain
     chain and classify them.  Below it, play the plain chain anyway so
     sweeps can chart the frontier.  A probe the executor stopped is the
     run, as in Thm2_adversary. *)
  let probe = if preconditions_met then Some (run_on plain prefix) else None in
  let probed =
    match probe with
    | Some { Models.Run_stats.violation = None; coloring; _ } ->
        Some (classify plain coloring first, classify plain coloring last)
    | Some _ | None -> None
  in
  (* Transpose the suffix exactly when the two ends agree; under the seam
     host the last gadget's classification flips. *)
  let seam_used =
    match probed with
    | Some (Colorings.Colorful.Row_colorful, Colorings.Colorful.Row_colorful)
    | Some (Colorings.Colorful.Column_colorful, Colorings.Colorful.Column_colorful) ->
        true
    | _ -> false
  in
  let chain, full_order =
    if seam_used then
      let chain = Topology.Gadget.create ~seam ~k ~gadgets () in
      (chain, snd (order_for chain))
    else (plain, full_order)
  in
  let outcome =
    match probe with Some p when Models.Fixed_host.stopped p -> p | _ -> run_on chain full_order
  in
  let coloring = outcome.Models.Run_stats.coloring in
  (* Re-derive the last gadget's classification on the chosen host
     (identical colors; the transposition changes what counts as a row). *)
  let last_class =
    Option.map
      (fun (_, probed_last) ->
        if
          Colorings.Coloring.colored_count coloring > 0
          && List.for_all (Colorings.Coloring.is_colored coloring)
               (Topology.Gadget.gadget_nodes chain last)
        then classify chain coloring last
        else probed_last)
      probed
  in
  {
    result =
      (match outcome.Models.Run_stats.violation with
      | Some v -> `Defeated v
      | None -> `Survived);
    first_class = Option.map fst probed;
    last_class;
    seam_used;
    presented = outcome.Models.Run_stats.presented;
    revealed = outcome.Models.Run_stats.revealed;
    preconditions_met;
  }
