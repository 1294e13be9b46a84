(* Client for serve.exe: submit jobs, print their results in spec
   order, byte-identical to a local serverless run of the same cells.

     dune exec bin/submit.exe -- --socket /tmp/jobs.sock --kind thm1 \
       "t=1 k=9 side=4000 algo=ael" "t=2 k=9 side=4000 algo=ael"
     dune exec bin/submit.exe -- --socket /tmp/jobs.sock --from jobs.txt
     dune exec bin/submit.exe -- --socket /tmp/jobs.sock --health

   A --from file holds one job per line, "kind<TAB>payload".  Up to 16
   jobs are kept in flight.  Retries (dropped connections, truncated
   frames, typed rejections) are automatic, seeded, and safe: job ids
   are content-derived, so a resubmit can never run a job twice; the
   campaign gives up after 10,000 consecutive connection failures, or
   10,000 rejections of one job (Harness.Client.run_campaign's
   defaults).  The retry/reconnect tally goes to stderr; stdout carries
   only results.  submit takes no --trace, --stats or --flight: the
   client emits no Obs event, so there would be nothing to record. *)

open Cmdliner

let read_specs_file path =
  In_channel.with_open_bin path @@ fun ic ->
  let rec go acc =
    match In_channel.input_line ic with
    | None -> List.rev acc
    | Some "" -> go acc
    | Some line -> (
        match String.index_opt line '\t' with
        | None -> failwith (Printf.sprintf "%s: line without a TAB: %s" path line)
        | Some t ->
            let kind = String.sub line 0 t in
            let payload = String.sub line (t + 1) (String.length line - t - 1) in
            go ((kind, payload) :: acc))
  in
  go []

let run socket kind payloads from deadline_ms health =
  try
    if health then begin
      match Harness.Client.health ~socket () with
      | Ok json ->
          print_endline json;
          0
      | Error (`Unreachable reason) ->
          (* exit 2: the server is unreachable — an operational state
             with its own exit code, distinct from protocol/usage
             failures (exit 1) *)
          Format.eprintf "submit: cannot reach %s: %s@." socket reason;
          2
    end
    else begin
      let specs =
        (match from with Some path -> read_specs_file path | None -> [])
        @ List.map (fun p -> (kind, p)) payloads
      in
      if specs = [] then begin
        Format.eprintf "submit: nothing to submit (positional payloads or --from)@.";
        2
      end
      else begin
        let deadline =
          Option.map (fun ms -> float_of_int ms /. 1000.) deadline_ms
        in
        let campaign = Harness.Client.run_campaign ?deadline ~socket specs in
        List.iter
          (fun result -> Format.printf "%s@." result)
          campaign.Harness.Client.results;
        Format.eprintf "submit: %d results (%d resubmits, %d rejections, %d reconnects)@."
          (List.length campaign.Harness.Client.results)
          campaign.Harness.Client.resubmits campaign.Harness.Client.rejections
          campaign.Harness.Client.reconnects;
        0
      end
    end
  with Failure msg | Invalid_argument msg ->
    Format.eprintf "submit: %s@." msg;
    1

let socket =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH|tcp:PORT"
        ~doc:"The serve.exe socket: a Unix-domain path or $(b,tcp:PORT).")

let kind =
  Arg.(
    value
    & opt string "thm1"
    & info [ "kind" ] ~docv:"KIND"
        ~doc:"Job kind for positional payloads: thm1|thm2|thm3|fuzz.")

let payloads =
  Arg.(value & pos_all string [] & info [] ~docv:"PAYLOAD" ~doc:"Job payloads.")

let from =
  Arg.(
    value
    & opt (some string) None
    & info [ "from" ] ~docv:"FILE"
        ~doc:"Also submit one job per line of $(docv): kind<TAB>payload.")

let deadline_ms =
  Arg.(
    value
    & opt (some Obs_cli.positive_int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:"Per-attempt job deadline forwarded with each submit.")

let health =
  Arg.(
    value & flag
    & info [ "health" ] ~doc:"Print the server's health JSON and exit.")

let cmd =
  Cmd.v
    (Cmd.info "submit" ~doc:"Submit jobs to serve.exe and print their results")
    Term.(
      const run $ socket $ kind $ payloads $ from $ deadline_ms $ health)

let () = exit (Cmd.eval' cmd)
