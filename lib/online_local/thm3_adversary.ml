type report = {
  result : [ `Defeated of Models.Run_stats.violation | `Survived ];
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
    "@[<v>result=%s first=%s last=%s seam=%b presented=%d preconditions=%b@]"
    (match r.result with
    | `Defeated v -> Format.asprintf "DEFEATED (%a)" Models.Run_stats.pp_violation v
    | `Survived -> "survived")
    (match r.first_class with None -> "-" | Some c -> class_name c)
    (match r.last_class with None -> "-" | Some c -> class_name c)
    r.seam_used r.presented r.preconditions_met

let run ~k ~gadgets ~algorithm () =
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
    (g first @ g last, prefix @ middle)
  in
  let run_on chain order =
    (* Raw gadget coordinates as hints: identical on the plain and seam
       hosts (which differ by the gadget transposition symmetry), so the
       probe-and-replay determinism is preserved. *)
    let hints v =
      let g, i, j = Topology.Gadget.coords chain v in
      Some (Models.View.Gadget_pos { frame = 0; gadget = g; row = i; col = j })
    in
    Models.Fixed_host.run ~hints
      ~host:(Topology.Gadget.graph chain)
      ~palette ~algorithm ~order ()
  in
  let prefix, full_order = order_for plain in
  if not preconditions_met then begin
    let outcome = run_on plain full_order in
    {
      result =
        (match outcome.Models.Run_stats.violation with
        | Some v -> `Defeated v
        | None -> `Survived);
      first_class = None;
      last_class = None;
      seam_used = false;
      presented = outcome.Models.Run_stats.presented;
      revealed = outcome.Models.Run_stats.revealed;
      preconditions_met;
    }
  end
  else begin
    let probe = run_on plain prefix in
    let classify chain coloring l =
      Colorings.Colorful.classify
        (Colorings.Colorful.matrix_of_gadget chain coloring ~gadget:l)
    in
    let seam_used, first_class, last_class =
      match probe.Models.Run_stats.violation with
      | Some _ -> (false, None, None)
      | None ->
          let c0 = classify plain probe.Models.Run_stats.coloring first in
          let cl = classify plain probe.Models.Run_stats.coloring last in
          (* Transpose the suffix exactly when the two ends agree; under
             the seam host the last gadget's classification flips. *)
          let same =
            match (c0, cl) with
            | Colorings.Colorful.Row_colorful, Colorings.Colorful.Row_colorful
            | Colorings.Colorful.Column_colorful, Colorings.Colorful.Column_colorful ->
                true
            | _ -> false
          in
          (same, Some c0, Some cl)
    in
    let chain =
      if seam_used then Topology.Gadget.create ~seam ~k ~gadgets () else plain
    in
    let _, full_order =
      if seam_used then order_for chain else (prefix, full_order)
    in
    let outcome = run_on chain full_order in
    (* Re-derive the last gadget's classification on the chosen host
       (identical colors; the transposition changes what counts as a row). *)
    let last_class =
      match (last_class, seam_used) with
      | Some _, _ when Colorings.Coloring.colored_count outcome.Models.Run_stats.coloring > 0 -> (
          match
            List.for_all
              (fun v -> Colorings.Coloring.is_colored outcome.Models.Run_stats.coloring v)
              (Topology.Gadget.gadget_nodes chain last)
          with
          | true ->
              Some
                (Colorings.Colorful.classify
                   (Colorings.Colorful.matrix_of_gadget chain
                      outcome.Models.Run_stats.coloring ~gadget:last))
          | false -> last_class)
      | lc, _ -> lc
    in
    {
      result =
        (match outcome.Models.Run_stats.violation with
        | Some v -> `Defeated v
        | None -> `Survived);
      first_class;
      last_class;
      seam_used;
      presented = outcome.Models.Run_stats.presented;
      revealed = outcome.Models.Run_stats.revealed;
      preconditions_met;
    }
  end
