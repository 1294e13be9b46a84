module Tr = Obs.Trace

type status =
  | Passed of { cases : int }
  | Failed of Runner.counterexample
  | Skipped of string

type report = {
  target : Fuzz_targets.t;
  status : status;
  cases_run : int;
}

type 'a failure = {
  case : int;
  size : int;
  tree : 'a Gen.tree;
  message : string;
}

let counterexample_of ~config ~name ~print prop (f : _ failure) =
  let minimal, steps, message =
    Runner.shrink ~max_shrinks:config.Runner.max_shrinks prop f.tree
      ~message:f.message
  in
  {
    Runner.name;
    seed = config.Runner.seed;
    case = f.case;
    size = f.size;
    shrink_steps = steps;
    printed = print minimal;
    message;
    replay =
      Runner.replay_token ~name ~seed:config.Runner.seed ~case:f.case
        ~size:f.size;
  }

let run_target ?(jobs = 1) ~config (t : Fuzz_targets.t) =
  match t.Fuzz_targets.available () with
  | Error reason -> { target = t; status = Skipped reason; cases_run = 0 }
  | Ok () ->
      let (Fuzz_targets.Packed { gen; print; prop }) = t.Fuzz_targets.packed in
      let cases =
        match t.Fuzz_targets.max_cases with
        | Some m -> min m config.Runner.cases
        | None -> config.Runner.cases
      in
      let config = { config with Runner.cases } in
      let jobs = if t.Fuzz_targets.serial then 1 else jobs in
      if Tr.on () then Tr.emit (Tr.Cell_start { key = "fuzz:" ^ t.name });
      (* All cases run whatever happens (no early stop), and only the
         lowest-index failure is kept: the sequential loop and the pool
         agree on the report. *)
      let work i =
        let size = Runner.size_for config i in
        match Runner.run_case gen prop ~seed:config.Runner.seed ~case:i ~size with
        | Runner.Case_pass -> None
        | Runner.Case_fail { tree; message } -> Some { case = i; size; tree; message }
      in
      let first_failure = ref None in
      let consume _i r =
        match (!first_failure, r) with
        | None, Some f -> first_failure := Some f
        | _ -> ()
      in
      if jobs <= 1 then
        for i = 0 to cases - 1 do
          consume i (work i)
        done
      else Harness.Pool.run ~jobs ~tasks:cases ~work ~consume;
      let status =
        match !first_failure with
        | None -> Passed { cases }
        | Some f -> Failed (counterexample_of ~config ~name:t.name ~print prop f)
      in
      if Tr.on () then
        Tr.emit
          (Tr.Cell_finish
             {
               key = "fuzz:" ^ t.name;
               status = (match status with Passed _ -> "ok" | _ -> "error");
             });
      { target = t; status; cases_run = cases }

let replay ?(max_shrinks = Runner.default_config.Runner.max_shrinks) token =
  match Runner.parse_replay_token token with
  | None -> Error (Printf.sprintf "malformed replay token %S" token)
  | Some (name, seed, case, size) -> (
      match Fuzz_targets.find name with
      | None -> Error (Printf.sprintf "no fuzz target named %S" name)
      | Some t ->
          let (Fuzz_targets.Packed { gen; print; prop }) = t.Fuzz_targets.packed in
          let config =
            { Runner.default_config with Runner.seed; cases = 1; max_shrinks }
          in
          let status =
            match Runner.run_case gen prop ~seed ~case ~size with
            | Runner.Case_pass -> Passed { cases = 1 }
            | Runner.Case_fail { tree; message } ->
                Failed
                  (counterexample_of ~config ~name ~print prop
                     { case; size; tree; message })
          in
          Ok { target = t; status; cases_run = 1 })
