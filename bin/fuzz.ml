(* Differential fuzz harness over the whole engine: colorings, b-values,
   adversary games (faults included) and sweep checkpointing.

   Each target pairs a seeded generator with a property whose failure is
   a genuine bug; failures shrink to a minimal counterexample and print
   a replay token that re-runs exactly that case:

     dune exec bin/fuzz.exe -- --seed 7 --cases 500 --jobs 4
     dune exec bin/fuzz.exe -- --targets thm1-game,bvalue-cancel
     dune exec bin/fuzz.exe -- --replay 'demo-bug:24301:3:12'
     dune exec bin/fuzz.exe -- --isolate proc --retries 1

   Stdout is byte-identical for a fixed (seed, cases, targets) whatever
   --jobs or --isolate is and however often it is re-run; shrunk repro
   files land in the corpus directory.  Exit 1 when any target fails.

   With --isolate proc each target runs inside a supervised child
   process (Harness.Supervisor): a target that segfaults, OOMs or hangs
   is killed and retried instead of taking the whole harness down, and
   is reported as "<target>: ERROR (...)" once quarantined.  Targets
   then parallelize across processes (--jobs), cases within one target
   run serially — even "serial" targets are safe to run concurrently in
   this mode because each owns its process-global state. *)

open Cmdliner
module FT = Proptest.Fuzz_targets
module FR = Proptest.Fuzz_run
module Runner = Proptest.Runner

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      (try Sys.mkdir d 0o755 with Sys_error _ -> ())
    end
  in
  if dir <> "" then go dir

let status_line (r : FR.report) =
  match r.status with
  | FR.Passed { cases } -> Printf.sprintf "%s: PASS (%d cases)" r.target.FT.name cases
  | FR.Skipped reason -> Printf.sprintf "%s: SKIP (%s)" r.target.FT.name reason
  | FR.Failed c ->
      Printf.sprintf "%s: FAIL (case %d, size %d, %d shrinks)" r.target.FT.name
        c.Runner.case c.Runner.size c.Runner.shrink_steps

(* Everything the parent needs from a finished target, reduced to plain
   strings/bools so a supervised child can Marshal it over the result
   pipe (a full FR.report holds the target record, hence closures). *)
type rendered = {
  line : string;  (** the one-line status *)
  extra : string;  (** counterexample + replay hint after the line, or "" *)
  repro : string option;  (** contents for corpus/<target>.repro *)
  failed : bool;
}

let render_report (r : FR.report) =
  let line = status_line r in
  match r.status with
  | FR.Failed c ->
      let pp = Format.asprintf "%a" Runner.pp_counterexample c in
      let replay =
        Printf.sprintf "replay: dune exec bin/fuzz.exe -- --replay '%s'"
          c.Runner.replay
      in
      {
        line;
        extra = Printf.sprintf "  %s\n  %s\n" pp replay;
        repro = Some (Printf.sprintf "%s\n%s\n" pp replay);
        failed = true;
      }
  | _ -> { line; extra = ""; repro = None; failed = false }

let print_rendered ppf r =
  Format.fprintf ppf "%s@." r.line;
  if r.extra <> "" then Format.fprintf ppf "%s@?" r.extra

let write_corpus ~corpus rendered =
  mkdir_p corpus;
  let summary = Buffer.create 256 in
  List.iter
    (fun (name, r) ->
      Buffer.add_string summary r.line;
      Buffer.add_char summary '\n';
      match r.repro with
      | Some contents ->
          Out_channel.with_open_bin
            (Filename.concat corpus (name ^ ".repro"))
            (fun oc -> Out_channel.output_string oc contents)
      | None -> ())
    rendered;
  Out_channel.with_open_bin
    (Filename.concat corpus "SUMMARY.txt")
    (fun oc -> Out_channel.output_string oc (Buffer.contents summary))

let resolve_targets = function
  | None -> Ok (List.filter_map FT.find FT.default_names)
  | Some spec ->
      let names = String.split_on_char ',' spec |> List.map String.trim in
      let missing = List.filter (fun n -> FT.find n = None) names in
      if missing <> [] then
        Error
          (Printf.sprintf "unknown fuzz target(s): %s (try --list)"
             (String.concat ", " missing))
      else Ok (List.filter_map FT.find names)

let list_targets () =
  List.iter
    (fun (t : FT.t) ->
      Printf.printf "%-16s %s%s\n" t.FT.name t.FT.doc
        (if t.FT.serial then " [serial]" else ""))
    FT.all;
  0

let run_replay token =
  match FR.replay token with
  | Error msg ->
      Format.eprintf "fuzz: %s@." msg;
      2
  | Ok r ->
      print_rendered Format.std_formatter (render_report r);
      (match r.FR.status with FR.Failed _ -> 1 | _ -> 0)

(* --isolate proc: one supervised child per target.  Cases inside a
   target run serially (jobs:1) — process-level parallelism across
   targets replaces domain-level parallelism within one.  An abnormal
   child death (crash, kill, hang) is retried by the supervisor and, once
   quarantined, reported as a failing ERROR line rather than aborting the
   harness. *)
let run_supervised ~config ~(exec : Obs_cli.exec) targets =
  let targets = Array.of_list targets in
  let results = Array.make (Array.length targets) None in
  Harness.Supervisor.run ~config:exec.Obs_cli.supervisor
    ~jobs:exec.Obs_cli.jobs ~tasks:(Array.length targets)
    ~key:(fun i -> targets.(i).FT.name)
    ~work:(fun i ->
      Marshal.to_string (render_report (FR.run_target ~jobs:1 ~config targets.(i))) [])
    ~consume:(fun i outcome ->
      let name = targets.(i).FT.name in
      let r =
        match outcome with
        | Harness.Supervisor.Done s -> (Marshal.from_string s 0 : rendered)
        | Harness.Supervisor.Failed msg ->
            {
              line = Printf.sprintf "%s: ERROR (%s)" name msg;
              extra = "";
              repro = None;
              failed = true;
            }
        | Harness.Supervisor.Quarantined q ->
            {
              line =
                Printf.sprintf "%s: ERROR (%s)" name
                  (Harness.Supervisor.quarantine_to_string q);
              extra = "";
              repro = None;
              failed = true;
            }
      in
      print_rendered Format.std_formatter r;
      results.(i) <- Some (name, r))
    ();
  Array.to_list results |> List.filter_map Fun.id

let run seed cases targets (exec : Obs_cli.exec) corpus list replay trace stats
    flight =
  if list then list_targets ()
  else
    match replay with
    | Some token -> run_replay token
    | None -> (
        match resolve_targets targets with
        | Error msg ->
            Format.eprintf "fuzz: %s@." msg;
            2
        | Ok targets ->
            Obs_cli.with_observability ~program:"fuzz" ~trace ~stats ~flight
            @@ fun () ->
            let config = { Runner.default_config with Runner.seed; cases } in
            Format.printf "fuzz seed=%d cases=%d targets=%d@." seed cases
              (List.length targets);
            let rendered =
              match exec.Obs_cli.isolation with
              | `In_domain ->
                  (* Serial targets run first: some fork (sweep-kill), and
                     on OCaml 5 a process that has ever spawned a domain —
                     pooled targets do at --jobs > 1 — can no longer fork.
                     Reports still print in target order. *)
                  let run t =
                    render_report (FR.run_target ~jobs:exec.Obs_cli.jobs ~config t)
                  in
                  let serial =
                    List.filter_map
                      (fun t -> if t.FT.serial then Some (t.FT.name, run t) else None)
                      targets
                  in
                  List.map
                    (fun t ->
                      let r =
                        if t.FT.serial then List.assoc t.FT.name serial else run t
                      in
                      print_rendered Format.std_formatter r;
                      (t.FT.name, r))
                    targets
              | `Process -> run_supervised ~config ~exec targets
            in
            write_corpus ~corpus rendered;
            if List.exists (fun (_, r) -> r.failed) rendered then 1 else 0)

let seed =
  Arg.(
    value
    & opt int Runner.default_config.Runner.seed
    & info [ "seed" ] ~docv:"INT"
        ~doc:"Stream seed. Every case $(i,i) runs on the independent stream \
              derived from (seed, i).")

let cases =
  Arg.(
    value
    & opt int 200
    & info [ "cases" ] ~docv:"N"
        ~doc:"Cases per target (targets may cap this lower; see --list).")

let targets =
  Arg.(
    value
    & opt (some string) None
    & info [ "targets" ] ~docv:"a,b,c"
        ~doc:"Comma-separated target names (default: all except demo-bug).")

let corpus =
  Arg.(
    value
    & opt string "fuzz-corpus"
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:"Directory for SUMMARY.txt and shrunk <target>.repro files.")

let list =
  Arg.(value & flag & info [ "list" ] ~doc:"List all fuzz targets and exit.")

let replay =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"TOKEN"
        ~doc:
          "Re-run exactly the case a failure report named \
           (target:seed:case:size), shrinking again on failure.")

let cmd =
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Differential fuzz harness over games, colorings and sweeps")
    Term.(
      const run $ seed $ cases $ targets $ Obs_cli.exec_term $ corpus $ list
      $ replay $ Obs_cli.trace $ Obs_cli.stats $ Obs_cli.flight)

let () = exit (Cmd.eval' cmd)
