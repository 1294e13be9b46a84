exception Dishonest_transcript of string

type violation =
  | Monochromatic_edge of Grid_graph.Graph.node * Grid_graph.Graph.node
  | Palette_overflow of { node : Grid_graph.Graph.node; color : int }
  | Repeated_presentation of Grid_graph.Graph.node
  | Algorithm_failure of {
      node : Grid_graph.Graph.node;
      message : string;
      backtrace : string;
    }

type result = [ `Defeated of violation | `Survived ]

type outcome = {
  coloring : Colorings.Coloring.t;
  violation : violation option;
  presented : int;
  revealed : int;
}

let pp_violation ppf = function
  | Monochromatic_edge (u, v) ->
      Format.fprintf ppf "monochromatic edge %d -- %d" u v
  | Palette_overflow { node; color } ->
      Format.fprintf ppf "node %d got out-of-palette color %d" node color
  | Repeated_presentation v -> Format.fprintf ppf "node %d presented twice" v
  | Algorithm_failure { node; message; backtrace } ->
      Format.fprintf ppf "algorithm raised on node %d: %s%s" node message
        (if backtrace = "" then "" else " [backtrace recorded]")

let pp_result ppf = function
  | `Defeated v -> Format.fprintf ppf "DEFEATED (%a)" pp_violation v
  | `Survived -> Format.pp_print_string ppf "survived"

let pp_outcome ppf o =
  Format.fprintf ppf "@[<v>steps=%d revealed=%d colored=%d/%d %a@]"
    o.presented o.revealed
    (Colorings.Coloring.colored_count o.coloring)
    (Colorings.Coloring.size o.coloring)
    (fun ppf -> function
      | None -> Format.fprintf ppf "ok"
      | Some v -> Format.fprintf ppf "VIOLATION: %a" pp_violation v)
    o.violation

let succeeded o ~colors ~host =
  o.violation = None
  && Colorings.Coloring.is_proper_total host o.coloring ~colors
