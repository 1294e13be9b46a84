type chaos = {
  chaos_seed : int;
  drop_conn : float;
  partial_frame : float;
  truncate_frame : float;
  kill_child : float;
  corrupt_journal : float;
  max_chaos_delay : float;
}

let default_chaos ~seed =
  {
    chaos_seed = seed;
    drop_conn = 0.10;
    partial_frame = 0.20;
    truncate_frame = 0.10;
    kill_child = 0.25;
    corrupt_journal = 0.10;
    max_chaos_delay = 0.05;
  }

type config = {
  jobs : int;
  isolation : [ `In_domain | `Process ];
  queue_limit : int;
  supervisor : Supervisor.config;
  max_frame : int;
  chaos : chaos option;
}

let default_config =
  {
    jobs = 2;
    isolation = `Process;
    queue_limit = 64;
    supervisor = Supervisor.default_config;
    max_frame = Wire.default_max_payload;
    chaos = None;
  }

let validate_config c =
  if c.jobs < 1 then invalid_arg "Server: jobs must be >= 1";
  if c.queue_limit < 1 then invalid_arg "Server: queue_limit must be >= 1";
  if c.max_frame < 1 then invalid_arg "Server: max_frame must be >= 1";
  Supervisor.validate_config c.supervisor;
  match c.chaos with
  | None -> ()
  | Some ch ->
      let prob what p =
        if p < 0. || p > 1. then
          invalid_arg ("Server: chaos " ^ what ^ " must be a probability")
      in
      prob "drop_conn" ch.drop_conn;
      prob "partial_frame" ch.partial_frame;
      prob "truncate_frame" ch.truncate_frame;
      prob "kill_child" ch.kill_child;
      prob "corrupt_journal" ch.corrupt_journal;
      if ch.max_chaos_delay < 0. then
        invalid_arg "Server: chaos max_chaos_delay must be >= 0"

(* ------------------------------ plumbing ------------------------------ *)

let status_of_result r =
  if String.length r >= 7 && String.sub r 0 7 = "ERROR: " then "error"
  else if String.length r >= 11 && String.sub r 0 11 = "QUARANTINED" then
    "quarantined"
  else "ok"

(* ------------------------------- state -------------------------------- *)

type jstate = Queued | Running | Finished of { status : string; result : string }

type job = {
  id : string;
  kind : string;
  payload : string;
  deadline : float option;  (* per-attempt seconds; None = config default *)
  mutable state : jstate;
  mutable waiters : int list;  (* conn ids, most recent first *)
  mutable attempts : int;  (* starts so far (a requeue starts afresh) *)
}

type conn = {
  cid : int;
  fd : Unix.file_descr;
  dec : Wire.decoder;
  out : Buffer.t;
  (* chaos: chunks that must reach [out] in order, each no earlier than
     its due time — once anything is deferred, later sends defer too *)
  mutable deferred : (float * string) list;
  mutable close_after_out : bool;
  mutable close_reason : string;
  mutable closed : bool;
}

type stats = {
  mutable accepted : int;
  mutable rejected : int;
  mutable completed : int;
  mutable errors : int;
  mutable quarantined : int;
  mutable dedup_cached : int;
  mutable dedup_inflight : int;
  mutable retries : int;
  mutable recovered : int;
  mutable conns_opened : int;
  mutable chaos_injected : int;
}

(* ----------------------------- the server ----------------------------- *)

let run ?(config = default_config) ?journal ?(resume = false)
    ?(should_stop = fun () -> false) ?(on_ready = fun () -> ()) ~socket
    ~handler () =
  validate_config config;
  let sockaddr = Client.sockaddr_of_spec socket in
  let unix_path = match sockaddr with Unix.ADDR_UNIX path -> Some path | _ -> None in
  let stats =
    {
      accepted = 0;
      rejected = 0;
      completed = 0;
      errors = 0;
      quarantined = 0;
      dedup_cached = 0;
      dedup_inflight = 0;
      retries = 0;
      recovered = 0;
      conns_opened = 0;
      chaos_injected = 0;
    }
  in
  let metric name = if Obs.Metrics.on () then Obs.Metrics.incr name in
  (* chaos schedule: a splitmix stream off the chaos seed *)
  let rng_state =
    ref (Int64.mul (Int64.of_int (match config.chaos with
                                  | Some c -> c.chaos_seed
                                  | None -> 0))
           0x9E3779B97F4A7C15L)
  in
  let draw () =
    rng_state := Int64.add !rng_state 0x9E3779B97F4A7C15L;
    Int64.to_float (Int64.shift_right_logical (Backoff.mix64 !rng_state) 11)
    /. 9007199254740992.
  in
  let chaos_fire kind =
    stats.chaos_injected <- stats.chaos_injected + 1;
    metric ("server.chaos." ^ kind);
    if Obs.Trace.on () then Obs.Trace.emit (Obs.Trace.Chaos_injected { kind })
  in
  (* ------------------------------ jobs ------------------------------ *)
  let jobs_tbl : (string, job) Hashtbl.t = Hashtbl.create 64 in
  let pending : job Queue.t = Queue.create () in
  (* domain-mode shared state; allocated lazily only under `In_domain *)
  let dmutex = Mutex.create () in
  let dcond = Condition.create () in
  let dstop = ref false in
  let drunning = ref 0 in
  let dout : (string * string * string * string) list ref = ref [] in
  let omutex = Mutex.create () in
  let pipe_r, pipe_w =
    match config.isolation with
    | `In_domain -> Unix.pipe ~cloexec:true ()
    | `Process -> (Unix.stdin, Unix.stdin)  (* unused *)
  in
  let queued_count () =
    match config.isolation with
    | `Process -> Queue.length pending
    | `In_domain -> Mutex.protect dmutex (fun () -> Queue.length pending)
  in
  let enqueue_job job =
    match config.isolation with
    | `Process -> Queue.push job pending
    | `In_domain ->
        Mutex.protect dmutex (fun () -> Queue.push job pending);
        Condition.signal dcond
  in
  (* --------------------------- journaling --------------------------- *)
  let jnl =
    Option.map (fun path -> Sweep.Journal.open_out ~resume path) journal
  in
  (* chaos: simulate the disk eating the record we just flushed — a
     seeded bit-flip inside the last journal line, or a truncation of
     its tail (repaired to stay newline-terminated so later appends
     still land on their own lines).  Either way the record fails its
     v2 CRC on the next load and is skipped with the typed warning;
     the affected job simply reruns after restart, so chaos soaks
     exercise the full corruption-recovery path end to end. *)
  let chaos_corrupt_tail path =
    match Unix.openfile path [ Unix.O_RDWR ] 0o644 with
    | exception Unix.Unix_error _ -> ()
    | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let size = (Unix.fstat fd).Unix.st_size in
            if size > 2 then begin
              (* locate the start of the final newline-terminated record *)
              let look = min size 512 in
              let buf = Bytes.create look in
              ignore (Unix.lseek fd (size - look) Unix.SEEK_SET);
              let got = ref 0 in
              (try
                 while !got < look do
                   match Unix.read fd buf !got (look - !got) with
                   | 0 -> raise Exit
                   | n -> got := !got + n
                 done
               with Exit | Unix.Unix_error _ -> ());
              let record_start =
                match Bytes.rindex_from_opt buf (!got - 2) '\n' with
                | Some i -> size - !got + i + 1
                | None -> size - !got
              in
              let span = size - 1 - record_start in
              if span > 0 then
                if draw () < 0.5 then begin
                  (* torn tail: keep half the record, restore the newline *)
                  let keep = max 1 (span / 2) in
                  Unix.ftruncate fd (record_start + keep);
                  ignore (Unix.lseek fd 0 Unix.SEEK_END);
                  ignore
                    (Unix.write fd (Bytes.of_string "\n") 0 1)
                end
                else begin
                  (* flip one bit somewhere in the record *)
                  let off =
                    record_start + int_of_float (draw () *. float_of_int span)
                  in
                  let off = min off (size - 2) in
                  let b = Bytes.create 1 in
                  ignore (Unix.lseek fd off Unix.SEEK_SET);
                  if Unix.read fd b 0 1 = 1 then begin
                    let bit = 1 lsl (int_of_float (draw () *. 8.) land 7) in
                    Bytes.set b 0
                      (Char.chr (Char.code (Bytes.get b 0) lxor bit));
                    ignore (Unix.lseek fd off Unix.SEEK_SET);
                    ignore (Unix.write fd b 0 1)
                  end
                end
            end)
  in
  let chaos_after_append () =
    match (config.chaos, journal) with
    | Some c, Some path when c.corrupt_journal > 0. && draw () < c.corrupt_journal
      ->
        chaos_fire "corrupt_journal";
        chaos_corrupt_tail path
    | _ -> ()
  in
  let journal_accept job =
    Option.iter
      (fun j ->
        let deadline_ms =
          match job.deadline with
          | None -> ""
          | Some s -> string_of_int (int_of_float (s *. 1000.))
        in
        Sweep.Journal.append j ~key:("j:" ^ job.id)
          (job.kind ^ "\t" ^ deadline_ms ^ "\t" ^ job.payload);
        chaos_after_append ())
      jnl
  in
  let journal_done job result =
    Option.iter
      (fun j ->
        Sweep.Journal.append j ~key:("d:" ^ job.id) result;
        chaos_after_append ())
      jnl
  in
  (* ---------------------------- connections -------------------------- *)
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
  let next_cid = ref 0 in
  let close_conn conn reason =
    if not conn.closed then begin
      conn.closed <- true;
      Hashtbl.remove conns conn.cid;
      (try Unix.close conn.fd with Unix.Unix_error _ -> ());
      if Obs.Trace.on () then
        Obs.Trace.emit (Obs.Trace.Conn_close { conn = conn.cid; reason })
    end
  in
  (* enqueue bytes on a connection, through the chaos harness *)
  let send conn (frame : bytes) =
    if (not conn.closed) && not conn.close_after_out then begin
      let s = Bytes.to_string frame in
      let now = Unix.gettimeofday () in
      let defer due chunk =
        conn.deferred <- conn.deferred @ [ (due, chunk) ]
      in
      match config.chaos with
      | Some c when conn.deferred <> [] ->
          (* keep stream order behind already-deferred chunks *)
          ignore c;
          defer now s
      | Some c when String.length s > 1 && draw () < c.truncate_frame ->
          chaos_fire "truncate_frame";
          Buffer.add_string conn.out (String.sub s 0 (String.length s / 2));
          conn.close_after_out <- true;
          conn.close_reason <- "truncate_frame"
      | Some c when String.length s > 1 && draw () < c.partial_frame ->
          chaos_fire "partial_frame";
          let half = String.length s / 2 in
          Buffer.add_string conn.out (String.sub s 0 half);
          defer
            (now +. (draw () *. c.max_chaos_delay))
            (String.sub s half (String.length s - half))
      | _ -> Buffer.add_string conn.out s
    end
  in
  let flush_deferred conn now =
    let rec go = function
      | (due, chunk) :: rest when due <= now ->
          Buffer.add_string conn.out chunk;
          go rest
      | rest -> rest
    in
    conn.deferred <- go conn.deferred
  in
  let send_result conn (job : job) result =
    send conn (Wire.encode ~tag:'R' (job.id ^ "\t" ^ result))
  in
  (* ------------------------- job completion ------------------------- *)
  let drain_req = Atomic.make false in
  let draining = ref false in
  let complete ?(stats_delta = "") (job : job) status result =
    job.state <- Finished { status; result };
    journal_done job (Sweep.join_delta result stats_delta);
    stats.completed <- stats.completed + 1;
    (match status with
    | "error" -> stats.errors <- stats.errors + 1
    | "quarantined" -> stats.quarantined <- stats.quarantined + 1
    | _ -> ());
    metric "server.completed";
    if Obs.Trace.on () then Obs.Trace.emit (Obs.Trace.Job_done { id = job.id; status });
    List.iter
      (fun cid ->
        match Hashtbl.find_opt conns cid with
        | Some conn -> send_result conn job result
        | None -> ())
      (List.rev job.waiters);
    job.waiters <- []
  in
  (* ------------------------- process backend ------------------------ *)
  (* Under `In_domain nothing is ever spawned on it, and it stays idle. *)
  let engine = Supervisor.create ~jobs:config.jobs config.supervisor in
  (* chaos: SIGKILLs due for running jobs' children, (due, job) *)
  let chaos_kills : (float * job) list ref = ref [] in
  let start_job job =
    job.state <- Running;
    if Obs.Trace.on () then
      Obs.Trace.emit (Obs.Trace.Job_start { id = job.id; attempt = job.attempts });
    job.attempts <- job.attempts + 1;
    metric "server.job_starts";
    Supervisor.spawn engine job ~key:job.id ?timeout:job.deadline (fun () ->
        handler ~kind:job.kind ~payload:job.payload);
    match config.chaos with
    | Some c when draw () < c.kill_child ->
        let due = Unix.gettimeofday () +. (draw () *. c.max_chaos_delay) in
        chaos_kills := (due, job) :: !chaos_kills
    | _ -> ()
  in
  (* A job whose child was abandoned — killed by chaos, or dead during
     the drain — goes back to the queue, its retry budget uncharged; a
     drained server leaves it journaled as accepted, to rerun after
     restart. *)
  let requeue job =
    job.state <- Queued;
    Queue.push job pending
  in
  let supervise () =
    Supervisor.tick engine;
    if !chaos_kills <> [] then begin
      let now = Unix.gettimeofday () in
      let due, later = List.partition (fun (at, _) -> at <= now) !chaos_kills in
      chaos_kills := later;
      List.iter
        (fun (_, job) -> if Supervisor.kill engine job then chaos_fire "kill_child")
        due
    end;
    if config.isolation = `Process && not !draining then begin
      let continue = ref true in
      while !continue && Supervisor.room engine do
        match Queue.take_opt pending with
        | Some job -> start_job job
        | None -> continue := false
      done
    end
  in
  let settle (job, settled) =
    match settled with
    | Supervisor.Finished (Supervisor.Done r, stats) ->
        let stats_delta = Option.value stats ~default:"" in
        if stats_delta <> "" then ignore (Obs.Stats.absorb_string stats_delta);
        complete ~stats_delta job (status_of_result r) r
    | Supervisor.Finished (Supervisor.Failed msg, _) ->
        complete job "error" ("ERROR: " ^ msg)
    | Supervisor.Finished (Supervisor.Quarantined q, _) ->
        complete job "quarantined" (Supervisor.quarantine_to_string q)
    | Supervisor.Retrying ->
        stats.retries <- stats.retries + 1;
        metric "server.retries"
    | Supervisor.Abandoned -> requeue job
  in
  (* -------------------------- domain backend ------------------------- *)
  let worker () =
    let continue = ref true in
    while !continue do
      let job =
        Mutex.protect dmutex (fun () ->
            while Queue.is_empty pending && not !dstop do
              Condition.wait dcond dmutex
            done;
            if !dstop then None
            else begin
              incr drunning;
              Queue.take_opt pending
            end)
      in
      match job with
      | None -> continue := false
      | Some job ->
          if Obs.Trace.on () then
            Obs.Trace.emit (Obs.Trace.Job_start { id = job.id; attempt = 0 });
          if Obs.Metrics.on () then Obs.Metrics.incr "server.job_starts";
          let status, result, stats_delta =
            (* [Obs.Stats.scoped] merges the job's contribution into this
               domain's shard and hands back the delta for the journal
               — the same per-job persistence the 'S' frame gives the
               process backend. *)
            match Obs.Stats.scoped (fun () -> handler ~kind:job.kind ~payload:job.payload) with
            | r, delta -> (status_of_result r, r, delta)
            | exception exn -> ("error", "ERROR: " ^ Printexc.to_string exn, "")
          in
          Mutex.protect omutex (fun () ->
              dout := (job.id, status, result, stats_delta) :: !dout);
          Mutex.protect dmutex (fun () -> decr drunning);
          (* wake the select loop *)
          (try ignore (Unix.write pipe_w (Bytes.of_string "x") 0 1)
           with Unix.Unix_error _ -> ())
    done
  in
  let domains =
    match config.isolation with
    | `In_domain -> List.init config.jobs (fun _ -> Domain.spawn worker)
    | `Process -> []
  in
  let collect_domain_results () =
    let done_jobs =
      Mutex.protect omutex (fun () ->
          let r = !dout in
          dout := [];
          r)
    in
    List.iter
      (fun (id, status, result, stats_delta) ->
        match Hashtbl.find_opt jobs_tbl id with
        | Some job -> complete ~stats_delta job status result
        | None -> ())
      (List.rev done_jobs)
  in
  let running_count () =
    match config.isolation with
    | `Process -> Supervisor.live engine
    | `In_domain -> Mutex.protect dmutex (fun () -> !drunning)
  in
  (* ------------------------------ frames ----------------------------- *)
  let health_json () =
    Obs.Json.Obj
      [
        ("status", Obs.Json.String (if !draining then "draining" else "ok"));
        ("queued", Obs.Json.Int (queued_count ()));
        ("running", Obs.Json.Int (running_count ()));
        ("completed", Obs.Json.Int stats.completed);
      ]
  in
  let stats_json () =
    Obs.Json.Obj
      [
        ("accepted", Obs.Json.Int stats.accepted);
        ("rejected", Obs.Json.Int stats.rejected);
        ("completed", Obs.Json.Int stats.completed);
        ("errors", Obs.Json.Int stats.errors);
        ("quarantined", Obs.Json.Int stats.quarantined);
        ("dedup_cached", Obs.Json.Int stats.dedup_cached);
        ("dedup_inflight", Obs.Json.Int stats.dedup_inflight);
        ("retries", Obs.Json.Int stats.retries);
        ("recovered", Obs.Json.Int stats.recovered);
        ("conns", Obs.Json.Int stats.conns_opened);
        ("chaos_injected", Obs.Json.Int stats.chaos_injected);
        ("queued", Obs.Json.Int (queued_count ()));
        ("running", Obs.Json.Int (running_count ()));
        ("draining", Obs.Json.Bool !draining);
      ]
  in
  let handle_submit conn payload =
    match String.index_opt payload '\n' with
    | None ->
        send conn (Wire.encode ~tag:'E' "malformed submit: no header line");
        conn.close_after_out <- true;
        conn.close_reason <- "protocol"
    | Some nl -> (
        let header = String.sub payload 0 nl in
        let body = String.sub payload (nl + 1) (String.length payload - nl - 1) in
        let kind, deadline_str = Client.split_tab header in
        let deadline =
          match deadline_str with
          | "" -> Ok None
          | s -> (
              match int_of_string_opt s with
              | Some ms when ms > 0 -> Ok (Some (float_of_int ms /. 1000.))
              | _ -> Error s)
        in
        match deadline with
        | Error s ->
            send conn (Wire.encode ~tag:'E' ("malformed submit: deadline " ^ s));
            conn.close_after_out <- true;
            conn.close_reason <- "protocol"
        | Ok deadline when kind = "" ->
            ignore deadline;
            send conn (Wire.encode ~tag:'E' "malformed submit: empty kind");
            conn.close_after_out <- true;
            conn.close_reason <- "protocol"
        | Ok deadline -> (
            let id = Client.job_id ~kind ~payload:body in
            let chaos_drop () =
              match config.chaos with
              | Some c when draw () < c.drop_conn ->
                  chaos_fire "drop_conn";
                  close_conn conn "drop_conn";
                  true
              | _ -> false
            in
            let submit_trace disposition =
              if Obs.Trace.on () then
                Obs.Trace.emit (Obs.Trace.Job_submit { id; kind; disposition })
            in
            match Hashtbl.find_opt jobs_tbl id with
            | Some ({ state = Finished { result; _ }; _ } as job) ->
                submit_trace "cached";
                stats.dedup_cached <- stats.dedup_cached + 1;
                metric "server.dedup.cached";
                if not (chaos_drop ()) then begin
                  send conn (Wire.encode ~tag:'A' id);
                  send_result conn job result
                end
            | Some job ->
                submit_trace "inflight";
                stats.dedup_inflight <- stats.dedup_inflight + 1;
                metric "server.dedup.inflight";
                if not (List.mem conn.cid job.waiters) then
                  job.waiters <- conn.cid :: job.waiters;
                if not (chaos_drop ()) then send conn (Wire.encode ~tag:'A' id)
            | None ->
                if !draining then begin
                  stats.rejected <- stats.rejected + 1;
                  metric "server.rejected";
                  if Obs.Trace.on () then
                    Obs.Trace.emit
                      (Obs.Trace.Job_reject
                         {
                           id;
                           queued = queued_count ();
                           limit = config.queue_limit;
                         });
                  send conn (Wire.encode ~tag:'X' (id ^ "\tdraining"))
                end
                else if queued_count () >= config.queue_limit then begin
                  stats.rejected <- stats.rejected + 1;
                  metric "server.rejected";
                  if Obs.Trace.on () then
                    Obs.Trace.emit
                      (Obs.Trace.Job_reject
                         {
                           id;
                           queued = queued_count ();
                           limit = config.queue_limit;
                         });
                  send conn
                    (Wire.encode ~tag:'X'
                       (Printf.sprintf "%s\toverloaded: %d jobs queued (limit %d)"
                          id (queued_count ()) config.queue_limit))
                end
                else begin
                  let job =
                    {
                      id;
                      kind;
                      payload = body;
                      deadline;
                      state = Queued;
                      waiters = [ conn.cid ];
                      attempts = 0;
                    }
                  in
                  Hashtbl.replace jobs_tbl id job;
                  journal_accept job;
                  enqueue_job job;
                  submit_trace "new";
                  stats.accepted <- stats.accepted + 1;
                  metric "server.accepted";
                  if chaos_drop () then () else send conn (Wire.encode ~tag:'A' id)
                end))
  in
  let process_conn_frames conn =
    let continue = ref true in
    while !continue && not conn.closed do
      match Wire.decode conn.dec with
      | Ok None -> continue := false
      | Ok (Some { Wire.tag = 'S'; payload }) -> handle_submit conn payload
      | Ok (Some { Wire.tag = 'P'; _ }) ->
          send conn (Wire.encode ~tag:'H' (Obs.Json.to_string (health_json ())))
      | Ok (Some { Wire.tag = 'T'; _ }) ->
          send conn (Wire.encode ~tag:'U' (Obs.Json.to_string (stats_json ())))
      | Ok (Some { Wire.tag = 'Q'; _ }) ->
          (* depth probe: the fleet's rebalancer polls this on every
             endpoint, so it is a fixed tab-separated line — no JSON
             parse on the hot path *)
          send conn
            (Wire.encode ~tag:'D'
               (Printf.sprintf "%d\t%d\t%d\t%d" (queued_count ()) (running_count ())
                  stats.completed
                  (if !draining then 1 else 0)))
      | Ok (Some { Wire.tag; _ }) ->
          send conn
            (Wire.encode ~tag:'E' (Printf.sprintf "unexpected request tag %C" tag));
          conn.close_after_out <- true;
          conn.close_reason <- "protocol";
          continue := false
      | Error e ->
          send conn (Wire.encode ~tag:'E' (Wire.error_to_string e));
          conn.close_after_out <- true;
          conn.close_reason <- "protocol";
          continue := false
    done
  in
  (* ------------------------------ socket ----------------------------- *)
  let listen_fd =
    let domain = Unix.domain_of_sockaddr sockaddr in
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    (try
       (match unix_path with
       | Some path when Sys.file_exists path -> Unix.unlink path
       | _ -> ());
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd sockaddr;
       Unix.listen fd 64
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       (match e with
       | Unix.Unix_error (err, _, _) ->
           failwith
             (Printf.sprintf "Server: cannot listen on %s: %s" socket
                (Unix.error_message err))
       | e -> raise e));
    fd
  in
  let accepting = ref true in
  let stop_accepting () =
    if !accepting then begin
      accepting := false;
      try Unix.close listen_fd with Unix.Unix_error _ -> ()
    end
  in
  (* ---------------------------- recovery ----------------------------- *)
  (match (journal, resume) with
  | Some path, true ->
      let records = Sweep.Journal.load path in
      let done_tbl = Hashtbl.create 64 in
      List.iter
        (fun (key, value) ->
          if String.length key > 2 && String.sub key 0 2 = "d:" then
            Hashtbl.replace done_tbl (String.sub key 2 (String.length key - 2))
              value)
        records;
      List.iter
        (fun (key, value) ->
          if String.length key > 2 && String.sub key 0 2 = "j:" then begin
            let id = String.sub key 2 (String.length key - 2) in
            if not (Hashtbl.mem jobs_tbl id) then begin
              (* value = kind TAB deadline_ms TAB payload *)
              match String.index_opt value '\t' with
              | None -> ()  (* foreign record: skipped *)
              | Some t1 -> (
                  let kind = String.sub value 0 t1 in
                  match String.index_from_opt value (t1 + 1) '\t' with
                  | None -> ()
                  | Some t2 ->
                      let deadline_str = String.sub value (t1 + 1) (t2 - t1 - 1) in
                      let body =
                        String.sub value (t2 + 1) (String.length value - t2 - 1)
                      in
                      let deadline =
                        match int_of_string_opt deadline_str with
                        | Some ms when ms > 0 -> Some (float_of_int ms /. 1000.)
                        | _ -> None
                      in
                      let job =
                        {
                          id;
                          kind;
                          payload = body;
                          deadline;
                          state = Queued;
                          waiters = [];
                          attempts = 0;
                        }
                      in
                      Hashtbl.replace jobs_tbl id job;
                      stats.recovered <- stats.recovered + 1;
                      metric "server.recovered";
                      (match Hashtbl.find_opt done_tbl id with
                      | Some value ->
                          (* strip the stats delta (absorbed into this
                             process's registry) so clients are served
                             the bare result *)
                          let result = Sweep.replay_value value in
                          job.state <-
                            Finished
                              { status = status_of_result result; result }
                      | None -> enqueue_job job))
            end
          end)
        records
  | _ -> ());
  (* ----------------------------- signals ----------------------------- *)
  let save_signal s h = try Some (Sys.signal s h) with Invalid_argument _ | Sys_error _ -> None in
  let prev_term =
    save_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set drain_req true))
  in
  let prev_int =
    save_signal Sys.sigint (Sys.Signal_handle (fun _ -> Atomic.set drain_req true))
  in
  let prev_pipe = save_signal Sys.sigpipe Sys.Signal_ignore in
  let restore_signals () =
    Option.iter (fun b -> Sys.set_signal Sys.sigterm b) prev_term;
    Option.iter (fun b -> Sys.set_signal Sys.sigint b) prev_int;
    Option.iter (fun b -> Sys.set_signal Sys.sigpipe b) prev_pipe
  in
  if Obs.Trace.on () then
    Obs.Trace.emit
      (Obs.Trace.Server_start
         { socket; jobs = config.jobs; queue_limit = config.queue_limit });
  (* ---------------------------- main loop ---------------------------- *)
  let chunk = Bytes.create 4096 in
  let find_conn fd =
    Hashtbl.fold (fun _ c acc -> if c.fd = fd then Some c else acc) conns None
  in
  let flush_conn conn =
    flush_deferred conn (Unix.gettimeofday ());
    if Buffer.length conn.out > 0 && not conn.closed then begin
      let bytes = Buffer.to_bytes conn.out in
      match Unix.write conn.fd bytes 0 (Bytes.length bytes) with
      | n ->
          if n >= Bytes.length bytes then Buffer.clear conn.out
          else begin
            let rest = Buffer.sub conn.out n (Buffer.length conn.out - n) in
            Buffer.clear conn.out;
            Buffer.add_string conn.out rest
          end
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          close_conn conn "error"
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
    end;
    if
      (not conn.closed) && conn.close_after_out
      && Buffer.length conn.out = 0
      && conn.deferred = []
    then close_conn conn conn.close_reason
  in
  let handle_conn_read conn =
    match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | 0 -> close_conn conn "eof"
    | n ->
        Wire.feed conn.dec chunk 0 n;
        process_conn_frames conn
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> close_conn conn "error"
  in
  let accept_ready () =
    match Unix.accept ~cloexec:true listen_fd with
    | fd, _ ->
        let cid = !next_cid in
        incr next_cid;
        let conn =
          {
            cid;
            fd;
            dec = Wire.decoder ~max_payload:config.max_frame ~tags:"SPTQ" ();
            out = Buffer.create 256;
            deferred = [];
            close_after_out = false;
            close_reason = "eof";
            closed = false;
          }
        in
        Hashtbl.replace conns cid conn;
        stats.conns_opened <- stats.conns_opened + 1;
        metric "server.conns";
        if Obs.Trace.on () then Obs.Trace.emit (Obs.Trace.Conn_open { conn = cid })
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
        ()
  in
  let select_timeout now =
    let t = ref 0.25 in
    let consider due = t := Float.max 0. (Float.min !t (due -. now)) in
    Option.iter consider (Supervisor.next_deadline engine);
    List.iter (fun (due, _) -> consider due) !chaos_kills;
    Hashtbl.iter
      (fun _ conn ->
        match conn.deferred with (due, _) :: _ -> consider due | [] -> ())
      conns;
    !t
  in
  let start_drain () =
    if not !draining then begin
      draining := true;
      stop_accepting ();
      (* retry-waiting jobs are abandoned like queued ones: journaled as
         accepted, rerun on restart *)
      List.iter requeue (Supervisor.abandon engine);
      if Obs.Trace.on () then
        Obs.Trace.emit
          (Obs.Trace.Server_drain
             { queued = queued_count (); running = running_count () });
      metric "server.drains";
      match config.isolation with
      | `In_domain ->
          Mutex.protect dmutex (fun () -> dstop := true);
          Condition.broadcast dcond
      | `Process -> ()
    end
  in
  let cleanup () =
    restore_signals ();
    stop_accepting ();
    (* never leak children, also on the exception path *)
    Supervisor.shutdown engine;
    (match config.isolation with
    | `In_domain ->
        Mutex.protect dmutex (fun () -> dstop := true);
        Condition.broadcast dcond;
        List.iter Domain.join domains;
        (try Unix.close pipe_r with Unix.Unix_error _ -> ());
        (try Unix.close pipe_w with Unix.Unix_error _ -> ())
    | `Process -> ());
    Hashtbl.iter (fun _ conn -> try Unix.close conn.fd with Unix.Unix_error _ -> ()) conns;
    Hashtbl.reset conns;
    Option.iter Sweep.Journal.close jnl;
    match unix_path with
    | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | None -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      on_ready ();
      let finished = ref false in
      while not !finished do
        if (Atomic.get drain_req || should_stop ()) && not !draining then
          start_drain ();
        supervise ();
        let now = Unix.gettimeofday () in
        (* collect results that arrived via the self-pipe *)
        if config.isolation = `In_domain then collect_domain_results ();
        (* flush what can be flushed without waiting for select *)
        Hashtbl.iter (fun _ conn -> flush_deferred conn now) conns;
        let rfds =
          (if !accepting then [ listen_fd ] else [])
          @ (if config.isolation = `In_domain then [ pipe_r ] else [])
          @ Hashtbl.fold (fun _ c acc -> c.fd :: acc) conns []
          @ Supervisor.fds engine
        in
        let wfds =
          Hashtbl.fold
            (fun _ c acc ->
              if Buffer.length c.out > 0 || (c.close_after_out && c.deferred = [])
              then c.fd :: acc
              else acc)
            conns []
        in
        (match Unix.select rfds wfds [] (select_timeout now) with
        | ready_r, ready_w, _ ->
            List.iter
              (fun fd ->
                if !accepting && fd = listen_fd then accept_ready ()
                else if config.isolation = `In_domain && fd = pipe_r then begin
                  (match Unix.read pipe_r chunk 0 (Bytes.length chunk) with
                  | _ -> ()
                  | exception Unix.Unix_error _ -> ());
                  collect_domain_results ()
                end
                else
                  match find_conn fd with
                  | Some conn -> handle_conn_read conn
                  | None -> Option.iter settle (Supervisor.read engine fd))
              ready_r;
            List.iter (fun fd -> Option.iter flush_conn (find_conn fd)) ready_w
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        if !draining then begin
          match config.isolation with
          | `Process -> if Supervisor.idle engine then finished := true
          | `In_domain ->
              (* workers have been told to stop; wait for in-flight *)
              if running_count () = 0 then begin
                collect_domain_results ();
                finished := true
              end
        end
      done;
      (* a short best-effort flush so waiters of jobs that finished
         during the drain see their results before the close *)
      let flush_deadline = Unix.gettimeofday () +. 0.5 in
      let pending_out () =
        Hashtbl.fold
          (fun _ c acc -> acc || Buffer.length c.out > 0 || c.deferred <> [])
          conns false
      in
      while pending_out () && Unix.gettimeofday () < flush_deadline do
        let now = Unix.gettimeofday () in
        Hashtbl.iter (fun _ conn -> flush_deferred conn now) conns;
        let wfds =
          Hashtbl.fold
            (fun _ c acc -> if Buffer.length c.out > 0 then c.fd :: acc else acc)
            conns []
        in
        match Unix.select [] wfds [] 0.05 with
        | _, ready_w, _ ->
            List.iter (fun fd -> Option.iter flush_conn (find_conn fd)) ready_w
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done)
