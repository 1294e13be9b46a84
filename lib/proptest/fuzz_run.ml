module Tr = Obs.Trace

type status =
  | Passed of { cases : int }
  | Failed of Runner.counterexample
  | Skipped of string

type report = { target : Fuzz_targets.t; status : status }

let run_target ~config (t : Fuzz_targets.t) =
  match t.Fuzz_targets.available () with
  | Error reason -> { target = t; status = Skipped reason }
  | Ok () ->
      let (Fuzz_targets.Packed { gen; print; prop }) = t.Fuzz_targets.packed in
      let cases =
        match t.Fuzz_targets.max_cases with
        | Some m -> min m config.Runner.cases
        | None -> config.Runner.cases
      in
      let config = { config with Runner.cases } in
      if Tr.on () then Tr.emit (Tr.Cell_start { key = "fuzz:" ^ t.name });
      (* All cases run whatever happens (no early stop), and only the
         lowest-index failure is kept. *)
      let first_failure = ref None in
      for i = 0 to cases - 1 do
        let size = Runner.size_for config i in
        match Runner.run_case gen prop ~seed:config.Runner.seed ~case:i ~size with
        | Runner.Case_pass -> ()
        | Runner.Case_fail { tree; message } ->
            if Option.is_none !first_failure then
              first_failure := Some (i, size, tree, message)
      done;
      let status =
        match !first_failure with
        | None -> Passed { cases }
        | Some (case, size, tree, message) ->
            Failed
              (Runner.counterexample_of ~config ~name:t.name ~print ~case ~size prop tree
                 message)
      in
      if Tr.on () then
        Tr.emit
          (Tr.Cell_finish
             {
               key = "fuzz:" ^ t.name;
               status = (match status with Passed _ -> "ok" | _ -> "error");
             });
      { target = t; status }

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
                  (Runner.counterexample_of ~config ~name ~print ~case ~size prop tree
                     message)
          in
          Ok { target = t; status })

let status_line r =
  let name = r.target.Fuzz_targets.name in
  match r.status with
  | Passed { cases } -> Printf.sprintf "%s: PASS (%d cases)" name cases
  | Skipped reason -> Printf.sprintf "%s: SKIP (%s)" name reason
  | Failed c ->
      Printf.sprintf "%s: FAIL (case %d, size %d, %d shrinks)" name c.Runner.case
        c.Runner.size c.Runner.shrink_steps
