(* Render a per-theorem summary of a trace: NDJSON (--trace FILE) or a
   binary flight-recorder file (--flight FILE), sniffed by first byte.

   The reader is strict: any malformed line or frame, unknown event, or
   trace written by a newer format version is a hard error — a trace
   that parses here is a trace the whole toolchain agrees on.

   Reconstruction: records carry a global emission index [i] and the
   stream [w] that emitted them: 0 for the process that wrote the
   trace, a worker's --jobs slot for the events it shipped to its
   parent.  Events with equal [w] are causally ordered, so walking the
   records in [i] order with per-worker state rebuilds cell spans
   (Cell_start .. Cell_finish) and game spans (Game_start ..
   Game_verdict) even when workers interleave.

   dune exec bin/trace_report.exe -- sweep.trace *)

module T = Obs.Trace

(* An open game span on one worker, filled in by Step events until the
   verdict arrives. *)
type open_game = {
  g_adversary : string;
  g_max_calls : int option;
  mutable g_steps : int;  (* last presentation step seen *)
}

(* An open sweep-cell span on one worker. *)
type open_cell = {
  c_key : string;
  c_t0 : float;
  mutable c_max_view : int;  (* max Step view inside the cell *)
}

type worker = {
  mutable cur_cell : open_cell option;
  mutable cur_game : open_game option;
  mutable cells : int;
  mutable busy : float;  (* summed cell span duration, seconds *)
}

(* Per-adversary tallies. *)
type adversary_stats = {
  mutable games : int;
  outcomes : (string, int ref) Hashtbl.t;  (* outcome label -> count *)
  mutable defeat_buckets : int array;  (* sketch buckets of defeat steps *)
  mutable budget_games : int;  (* games that ran under a color-call budget *)
  mutable budget_used : int;
  mutable budget_limit : int;
  mutable budget_max_pct : float;
}

let adversary_stats () =
  {
    games = 0;
    outcomes = Hashtbl.create 8;
    defeat_buckets = Array.make (Obs.Stats.sketch_index max_int + 1) 0;
    budget_games = 0;
    budget_used = 0;
    budget_limit = 0;
    budget_max_pct = 0.;
  }

let count tbl key n =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace tbl key (ref n)

let sorted_counts tbl =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl []
  |> List.sort compare

(* "t=1 k=6 side=400 algo=ael" -> Some 1 *)
let t_of_cell_key key =
  String.split_on_char ' ' key
  |> List.find_map (fun part ->
         match String.split_on_char '=' part with
         | [ "t"; v ] -> int_of_string_opt v
         | _ -> None)

let pp_buckets ppf buckets =
  Array.iteri
    (fun b n ->
      if n > 0 then
        let lo = Obs.Stats.sketch_value b in
        let hi = Obs.Stats.sketch_value (b + 1) - 1 in
        Format.fprintf ppf "  [%d..%d] %d" lo hi n)
    buckets

let report path =
  (* Same report for both trace containers: NDJSON (--trace) and the
     flight recorder's binary frames (--flight), sniffed by first
     byte.  The decoded record stream is identical by construction. *)
  let records =
    if Obs.Flight.is_flight_file path then Obs.Flight.read_file path
    else T.read_file path
  in
  let program, version =
    match records with
    | { T.ev = T.Trace_header { program; version }; _ } :: _ -> (program, version)
    | _ -> failwith "trace does not start with a header record"
  in
  let span =
    List.fold_left (fun acc r -> max acc r.T.ts) 0. records
  in
  let workers : (int, worker) Hashtbl.t = Hashtbl.create 8 in
  let worker w =
    match Hashtbl.find_opt workers w with
    | Some st -> st
    | None ->
        let st = { cur_cell = None; cur_game = None; cells = 0; busy = 0. } in
        Hashtbl.replace workers w st;
        st
  in
  let adversaries : (string, adversary_stats) Hashtbl.t = Hashtbl.create 8 in
  let adversary a =
    match Hashtbl.find_opt adversaries a with
    | Some st -> st
    | None ->
        let st = adversary_stats () in
        Hashtbl.replace adversaries a st;
        st
  in
  let cell_status = Hashtbl.create 4 in  (* "ok"/"error"/"replayed" -> count *)
  let fault_tags = Hashtbl.create 8 in
  let misbehaviors = Hashtbl.create 8 in
  let audit_ok = Hashtbl.create 4 in  (* executor -> count *)
  let audit_fail = Hashtbl.create 4 in
  let max_view_by_t = Hashtbl.create 8 in  (* T -> max view size *)
  let ckpt_flushes = ref 0 in
  let ckpt_bytes = ref 0 in
  let color_calls = ref 0 in
  let child_spawns = ref 0 in
  let child_cpu_user = ref 0. in
  let child_cpu_sys = ref 0. in
  let exit_statuses = Hashtbl.create 4 in  (* "exit:0"/"signal:SIGKILL" -> count *)
  let kill_signals = Hashtbl.create 4 in  (* "sigterm"/"sigkill" -> count *)
  let retries = Hashtbl.create 4 in  (* cell key -> retry count *)
  let quarantined = ref [] in  (* (key, attempts, reason), reverse order *)
  let server_socket = ref None in
  let conns_opened = ref 0 in
  let conn_close_reasons = Hashtbl.create 4 in
  let job_dispositions = Hashtbl.create 4 in  (* "new"/"inflight"/"cached" *)
  let job_rejects = ref 0 in
  let job_starts = ref 0 in
  let job_statuses = Hashtbl.create 4 in  (* "ok"/"error"/"quarantined" *)
  let drains = ref [] in  (* (queued, running), reverse order *)
  let chaos_kinds = Hashtbl.create 4 in
  let canon_hits = Hashtbl.create 4 in  (* memo hits, by cache kind *)
  let journal_corruptions = ref [] in  (* (path, line, reason), reverse *)
  List.iter
    (fun r ->
      let w = worker r.T.w in
      match r.T.ev with
      | T.Trace_header _ -> ()
      | T.Cell_start { key } ->
          w.cur_cell <- Some { c_key = key; c_t0 = r.T.ts; c_max_view = 0 }
      | T.Cell_finish { key = _; status } ->
          count cell_status status 1;
          (match w.cur_cell with
          | Some c ->
              w.cells <- w.cells + 1;
              w.busy <- w.busy +. (r.T.ts -. c.c_t0);
              (match t_of_cell_key c.c_key with
              | Some t when c.c_max_view > 0 ->
                  let prev =
                    Option.value ~default:0 (Hashtbl.find_opt max_view_by_t t)
                  in
                  Hashtbl.replace max_view_by_t t (max prev c.c_max_view)
              | _ -> ())
          | None -> ());
          w.cur_cell <- None
      | T.Checkpoint_flush { bytes; _ } ->
          (* flushes land on the flushing worker's stream, but they are a
             whole-sweep notion — tallied globally *)
          incr ckpt_flushes;
          ckpt_bytes := !ckpt_bytes + bytes
      | T.Game_start { adversary = a; max_color_calls; _ } ->
          w.cur_game <-
            Some
              {
                g_adversary = a;
                g_max_calls = max_color_calls;
                g_steps = 0;
              }
      | T.Game_verdict { adversary = a; outcome; color_calls = calls; _ } ->
          let st = adversary a in
          st.games <- st.games + 1;
          count st.outcomes outcome 1;
          (match w.cur_game with
          | Some g ->
              if outcome = "DEFEATED" then begin
                (* how long the adversary needed: last presentation step *)
                let b = Obs.Stats.sketch_index g.g_steps in
                st.defeat_buckets.(b) <- st.defeat_buckets.(b) + 1
              end;
              (match g.g_max_calls with
              | Some limit when limit > 0 ->
                  st.budget_games <- st.budget_games + 1;
                  st.budget_used <- st.budget_used + calls;
                  st.budget_limit <- st.budget_limit + limit;
                  st.budget_max_pct <-
                    Float.max st.budget_max_pct
                      (100. *. float_of_int calls /. float_of_int limit)
              | _ -> ())
          | None -> ());
          w.cur_game <- None
      | T.Step { step; max_view; _ } ->
          (match w.cur_game with
          | Some g -> g.g_steps <- max g.g_steps step
          | None -> ());
          (match w.cur_cell with
          | Some c -> c.c_max_view <- max c.c_max_view max_view
          | None -> ())
      | T.Reveal _ -> ()
      | T.Color_call _ -> incr color_calls
      | T.Audit { executor; ok; _ } ->
          count (if ok then audit_ok else audit_fail) executor 1
      | T.Fault_injected { tag; _ } -> count fault_tags tag 1
      | T.Misbehavior { label; _ } -> count misbehaviors label 1
      | T.Child_spawn _ -> incr child_spawns
      | T.Child_kill { signal; _ } -> count kill_signals signal 1
      | T.Child_exit { status; cpu_user; cpu_sys; _ } ->
          count exit_statuses status 1;
          child_cpu_user := !child_cpu_user +. cpu_user;
          child_cpu_sys := !child_cpu_sys +. cpu_sys
      | T.Cell_retry { key; _ } -> count retries key 1
      | T.Cell_quarantined { key; attempts; reason } ->
          quarantined := (key, attempts, reason) :: !quarantined
      | T.Server_start { socket; _ } -> server_socket := Some socket
      | T.Conn_open _ -> incr conns_opened
      | T.Conn_close { reason; _ } -> count conn_close_reasons reason 1
      | T.Job_submit { disposition; _ } -> count job_dispositions disposition 1
      | T.Job_reject _ -> incr job_rejects
      | T.Job_start _ -> incr job_starts
      | T.Job_done { status; _ } -> count job_statuses status 1
      | T.Server_drain { queued; running } -> drains := (queued, running) :: !drains
      | T.Chaos_injected { kind } -> count chaos_kinds kind 1
      | T.Canon_hit { kind; _ } -> count canon_hits kind 1
      | T.Journal_corrupt { path; line; reason } ->
          journal_corruptions := (path, line, reason) :: !journal_corruptions)
    records;
  let ppf = Format.std_formatter in
  Format.fprintf ppf "trace %s: program %s, format v%d@." path program version;
  Format.fprintf ppf "  %d records, %d workers, span %.3fs@." (List.length records)
    (Hashtbl.length workers) span;
  if Hashtbl.length cell_status > 0 then begin
    Format.fprintf ppf "@.cells@.";
    List.iter
      (fun (status, n) -> Format.fprintf ppf "  %-10s %d@." status n)
      (sorted_counts cell_status);
    if !ckpt_flushes > 0 then
      Format.fprintf ppf "  checkpoint flushes %d (%d bytes)@." !ckpt_flushes
        !ckpt_bytes
  end;
  if Hashtbl.length workers > 1 then begin
    Format.fprintf ppf "@.worker load balance@.";
    Hashtbl.fold (fun w st acc -> (w, st) :: acc) workers []
    |> List.sort compare
    |> List.iter (fun (w, st) ->
           Format.fprintf ppf "  w%-3d %3d cells, busy %.3fs@." w st.cells st.busy)
  end;
  if !child_spawns > 0 then begin
    Format.fprintf ppf "@.supervisor (process isolation)@.";
    Format.fprintf ppf "  workers spawned    %d@." !child_spawns;
    List.iter
      (fun (status, n) -> Format.fprintf ppf "  reaped %-12s %d@." status n)
      (sorted_counts exit_statuses);
    List.iter
      (fun (signal, n) -> Format.fprintf ppf "  watchdog %-10s %d@." signal n)
      (sorted_counts kill_signals);
    let total_retries =
      Hashtbl.fold (fun _ r acc -> acc + !r) retries 0
    in
    if total_retries > 0 then begin
      Format.fprintf ppf "  retries            %d@." total_retries;
      List.iter
        (fun (key, n) -> Format.fprintf ppf "    %-40s %d@." key n)
        (sorted_counts retries)
    end;
    List.iter
      (fun (key, attempts, reason) ->
        Format.fprintf ppf "  quarantined %s after %d attempts (%s)@." key
          attempts reason)
      (List.rev !quarantined);
    Format.fprintf ppf "  worker cpu         %.3fs user, %.3fs sys@."
      !child_cpu_user !child_cpu_sys
  end;
  (match !server_socket with
  | None -> ()
  | Some socket ->
      Format.fprintf ppf "@.job server (%s)@." socket;
      Format.fprintf ppf "  connections        %d@." !conns_opened;
      List.iter
        (fun (reason, n) -> Format.fprintf ppf "  closed %-11s %d@." reason n)
        (sorted_counts conn_close_reasons);
      List.iter
        (fun (d, n) -> Format.fprintf ppf "  submit %-11s %d@." d n)
        (sorted_counts job_dispositions);
      if !job_rejects > 0 then
        Format.fprintf ppf "  rejected           %d@." !job_rejects;
      Format.fprintf ppf "  job starts         %d@." !job_starts;
      List.iter
        (fun (status, n) -> Format.fprintf ppf "  done %-13s %d@." status n)
        (sorted_counts job_statuses);
      List.iter
        (fun (queued, running) ->
          Format.fprintf ppf "  drained with %d queued, %d running@." queued
            running)
        (List.rev !drains);
      if Hashtbl.length chaos_kinds > 0 then begin
        Format.fprintf ppf "  chaos injected@.";
        List.iter
          (fun (kind, n) -> Format.fprintf ppf "    %-16s %d@." kind n)
          (sorted_counts chaos_kinds)
      end);
  if !journal_corruptions <> [] then begin
    Format.fprintf ppf "@.journal corruption (records skipped on load)@.";
    List.iter
      (fun (path, line, reason) ->
        Format.fprintf ppf "  %s:%d: %s@." path line reason)
      (List.rev !journal_corruptions)
  end;
  if Hashtbl.length canon_hits > 0 then begin
    Format.fprintf ppf "@.memo cache hits@.";
    List.iter
      (fun (kind, n) -> Format.fprintf ppf "  %-10s %d@." kind n)
      (sorted_counts canon_hits)
  end;
  if Hashtbl.length adversaries > 0 then begin
    Format.fprintf ppf "@.games by adversary@.";
    Hashtbl.fold (fun a st acc -> (a, st) :: acc) adversaries []
    |> List.sort compare
    |> List.iter (fun (a, st) ->
           Format.fprintf ppf "  %s: %d game%s@." a st.games
             (if st.games = 1 then "" else "s");
           List.iter
             (fun (outcome, n) -> Format.fprintf ppf "    %-40s %d@." outcome n)
             (sorted_counts st.outcomes);
           if Array.exists (fun n -> n > 0) st.defeat_buckets then
             Format.fprintf ppf "    defeat steps:%a@." pp_buckets
               st.defeat_buckets;
           if st.budget_games > 0 && st.budget_limit > 0 then
             Format.fprintf ppf
               "    color-call budget: used %d of %d (avg %.1f%%, max %.1f%%)@."
               st.budget_used st.budget_limit
               (100. *. float_of_int st.budget_used /. float_of_int st.budget_limit)
               st.budget_max_pct)
  end;
  if Hashtbl.length max_view_by_t > 0 then begin
    Format.fprintf ppf "@.max view size vs T@.";
    Hashtbl.fold (fun t v acc -> (t, v) :: acc) max_view_by_t []
    |> List.sort compare
    |> List.iter (fun (t, v) -> Format.fprintf ppf "  T=%-3d %d@." t v)
  end;
  if !color_calls > 0 then
    Format.fprintf ppf "@.color calls traced: %d@." !color_calls;
  if Hashtbl.length fault_tags > 0 then begin
    Format.fprintf ppf "@.faults injected@.";
    List.iter
      (fun (tag, n) -> Format.fprintf ppf "  %-30s %d@." tag n)
      (sorted_counts fault_tags)
  end;
  if Hashtbl.length misbehaviors > 0 then begin
    Format.fprintf ppf "@.misbehavior certificates@.";
    List.iter
      (fun (label, n) -> Format.fprintf ppf "  %-30s %d@." label n)
      (sorted_counts misbehaviors)
  end;
  if Hashtbl.length audit_ok > 0 || Hashtbl.length audit_fail > 0 then begin
    Format.fprintf ppf "@.audits@.";
    let executors = Hashtbl.create 4 in
    Hashtbl.iter (fun e _ -> Hashtbl.replace executors e ()) audit_ok;
    Hashtbl.iter (fun e _ -> Hashtbl.replace executors e ()) audit_fail;
    Hashtbl.fold (fun e () acc -> e :: acc) executors []
    |> List.sort compare
    |> List.iter (fun e ->
           let get tbl =
             match Hashtbl.find_opt tbl e with Some r -> !r | None -> 0
           in
           Format.fprintf ppf "  %-15s %d ok, %d failed@." e (get audit_ok)
             (get audit_fail))
  end

let main path =
  match report path with
  | () -> 0
  | exception Obs.Json.Parse_error msg ->
      Format.eprintf "trace_report: %s@." msg;
      1
  | exception (Failure msg | Sys_error msg) ->
      Format.eprintf "trace_report: %s@." msg;
      1

(* Integrity-check a sweep/server journal: verify the CRC trailers
   and report — without replaying — exactly which records a resume
   would skip.  Exit 0 on a clean journal, 1 when corruption is found,
   2 when the file cannot be read or is in another format version. *)
let fsck_main path =
  match Harness.Sweep.Journal.fsck path with
  | { Harness.Sweep.Journal.records; corrupt } ->
      Format.printf "journal %s: format v%d, %d valid record%s@." path
        Harness.Sweep.Journal.version records
        (if records = 1 then "" else "s");
      List.iter
        (fun { Harness.Sweep.Journal.line; reason } ->
          Format.printf "  line %d: CORRUPT — %s@." line reason)
        corrupt;
      if corrupt = [] then begin
        Format.printf "  no corruption detected@.";
        0
      end
      else begin
        Format.printf "  %d corrupt record%s: a --resume reruns exactly \
                       these keys@."
          (List.length corrupt)
          (if List.length corrupt = 1 then "" else "s");
        1
      end
  | exception (Invalid_argument msg | Sys_error msg | Failure msg) ->
      Format.eprintf "trace_report: journal-fsck: %s@." msg;
      2

open Cmdliner

let path =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRACE"
        ~doc:
          "Trace file: NDJSON written by --trace, or a binary flight \
           recording written by --flight (auto-detected).")

let journal_path =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"JOURNAL"
        ~doc:"Checkpoint/journal file written by --checkpoint or --journal.")

let report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:"Summarize a trace (NDJSON or binary flight recording): \
             outcomes, defeat-step histograms, budgets, worker load")
    Term.(const main $ path)

let fsck_cmd =
  Cmd.v
    (Cmd.info "journal-fsck"
       ~doc:"Verify a checkpoint/journal's per-record CRC32 trailers \
             (format v2) and list the records a --resume would skip; \
             exits 1 when corruption is found, 2 on an unreadable or \
             newer-format journal")
    Term.(const fsck_main $ journal_path)

let cmd =
  Cmd.group
    ~default:Term.(const main $ path)
    (Cmd.info "trace_report"
       ~doc:"Summarize a trace, or integrity-check a journal \
             (journal-fsck)")
    [ report_cmd; fsck_cmd ]

(* [trace_report TRACE] (no subcommand) must keep rendering the report:
   Cmd.group only falls back to the default term when the first
   positional is absent, so a bare trace path would otherwise be
   rejected as an unknown command.  Route it to [report] explicitly. *)
let argv =
  let argv = Sys.argv in
  if
    Array.length argv > 1
    &&
    match argv.(1) with
    | "report" | "journal-fsck" -> false
    | s -> String.length s > 0 && s.[0] <> '-'
  then
    Array.append
      [| argv.(0); "report" |]
      (Array.sub argv 1 (Array.length argv - 1))
  else argv

let () = exit (Cmd.eval' ~argv cmd)
