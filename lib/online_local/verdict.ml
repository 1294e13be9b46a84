module M = Harness.Misbehavior
module RS = Models.Run_stats

type outcome =
  | Defeated
  | Survived
  | Algorithm_fault of M.t
  | Adversary_fault of M.t

let classify fault run =
  match (fault, run) with
  | Some m, _ -> Algorithm_fault m
  | None, Error m -> Adversary_fault m
  | None, Ok `Survived -> Survived
  | None, Ok (`Defeated (RS.Monochromatic_edge _)) -> Defeated
  | None, Ok (`Defeated (RS.Palette_overflow { color; _ })) ->
      Algorithm_fault (M.Out_of_palette { color })
  | None, Ok (`Defeated (RS.Algorithm_failure { message; backtrace; _ })) ->
      Algorithm_fault (M.Raised { message; backtrace })
  | None, Ok (`Defeated (RS.Repeated_presentation v)) ->
      Adversary_fault
        (M.Dishonest_transcript
           { message = Printf.sprintf "node %d presented twice" v })

let label = function
  | Defeated -> "DEFEATED"
  | Survived -> "survived"
  | Algorithm_fault m -> "ALGORITHM-FAULT (" ^ M.label m ^ ")"
  | Adversary_fault m -> "ADVERSARY-FAULT (" ^ M.label m ^ ")"

type t = {
  adversary : string;
  algorithm : string;
  n : int;
  outcome : outcome;
  guaranteed : bool;
  detail : string;
}

let pp ppf v =
  let flag =
    match v.outcome with
    | (Defeated | Survived) when v.guaranteed -> " [guaranteed]"
    | _ -> ""
  in
  Format.fprintf ppf "@[<v>%s vs %s (n=%d): %s%s@,%s@]" v.adversary v.algorithm v.n
    (label v.outcome) flag v.detail
