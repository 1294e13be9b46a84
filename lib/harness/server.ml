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
  queue_limit : int;
  supervisor : Supervisor.config;
  max_frame : int;
  chaos : chaos option;
}

let default_config =
  {
    jobs = 2;
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

(* --------------------------- chaos schedule --------------------------- *)

(* Every injection point draws from one splitmix stream off the chaos
   seed, in the order the server reaches them. *)
module Chaos = struct
  type t = { rates : chaos option; mutable rng : Int64.t; mutable injected : int }

  let create rates =
    let seed = match rates with Some c -> c.chaos_seed | None -> 0 in
    { rates; rng = Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L; injected = 0 }

  let injected t = t.injected

  let draw t =
    t.rng <- Int64.add t.rng 0x9E3779B97F4A7C15L;
    Int64.to_float (Int64.shift_right_logical (Backoff.mix64 t.rng) 11)
    /. 9007199254740992.

  (* One draw that comes up with probability [rate c]; no draw at all
     without chaos or at rate 0. *)
  let roll t rate =
    match t.rates with Some c when rate c > 0. -> draw t < rate c | _ -> false

  let delay t = match t.rates with Some c -> draw t *. c.max_chaos_delay | None -> 0.

  let fire t kind =
    t.injected <- t.injected + 1;
    if Obs.Trace.on () then Obs.Trace.emit (Obs.Trace.Chaos_injected { kind })
end

(* ------------------------------ journal ------------------------------- *)

module Journal = struct
  type job = { id : string; kind : string; deadline_ms : int option; payload : string }
  type record = Accepted of job | Finished of { id : string; value : string }

  let deadline_of_string = function
    | "" -> Ok None
    | s -> (
        match int_of_string_opt s with Some ms when ms > 0 -> Ok (Some ms) | _ -> Error s)

  let encode = function
    | Accepted j ->
        let deadline = Option.fold ~none:"" ~some:string_of_int j.deadline_ms in
        ("j:" ^ j.id, String.concat "\t" [ j.kind; deadline; j.payload ])
    | Finished { id; value } -> ("d:" ^ id, value)

  let decode (key, value) =
    let n = String.length key in
    if n <= 2 then None
    else
      let id = String.sub key 2 (n - 2) in
      match String.sub key 0 2 with
      | "d:" -> Some (Finished { id; value })
      | "j:" -> (
          (* value = kind TAB deadline_ms TAB payload *)
          let sub a b = String.sub value a (b - a) in
          match String.index_opt value '\t' with
          | None -> None
          | Some t1 -> (
              match String.index_from_opt value (t1 + 1) '\t' with
              | None -> None
              | Some t2 ->
                  let deadline_ms =
                    Result.value (deadline_of_string (sub (t1 + 1) t2)) ~default:None
                  in
                  let payload = sub (t2 + 1) (String.length value) in
                  Some (Accepted { id; kind = sub 0 t1; deadline_ms; payload })))
      | _ -> None

  type recovered = { cached : (job * string) list; queued : job list }

  let recover records =
    let records = List.filter_map decode records in
    let finished = Hashtbl.create 64 and seen = Hashtbl.create 64 in
    List.iter
      (function Finished { id; value } -> Hashtbl.replace finished id value | _ -> ())
      records;
    let cached, queued =
      List.fold_left
        (fun (cached, queued) -> function
          | Accepted j when not (Hashtbl.mem seen j.id) -> (
              Hashtbl.add seen j.id ();
              match Hashtbl.find_opt finished j.id with
              | Some value -> ((j, value) :: cached, queued)
              | None -> (cached, j :: queued))
          | _ -> (cached, queued))
        ([], []) records
    in
    { cached = List.rev cached; queued = List.rev queued }
end

(* Chaos: simulate the disk eating the record just flushed to [path] — a
   seeded bit-flip inside the last line, or a truncation of its tail
   (repaired to stay newline-terminated so later appends still land on
   their own lines).  Either way the record fails its v2 CRC on the next
   load and is skipped with the typed warning; the affected job simply
   reruns after restart, so chaos soaks exercise the whole
   corruption-recovery path. *)
let corrupt_tail chaos path =
  let data = try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> "" in
  let size = String.length data in
  (* the final newline-terminated record is [start, size - 1) *)
  let start =
    if size <= 2 then size
    else Option.fold ~none:0 ~some:succ (String.rindex_from_opt data (size - 2) '\n')
  in
  let span = size - 1 - start in
  if span > 0 then
    match Unix.openfile path [ Unix.O_WRONLY ] 0o644 with
    | exception Unix.Unix_error _ -> ()
    | fd ->
        Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
        let write_at off s =
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          ignore (Unix.write_substring fd s 0 1)
        in
        if Chaos.draw chaos < 0.5 then begin
          (* torn tail: keep half the record, restore the newline *)
          let keep = start + max 1 (span / 2) in
          Unix.ftruncate fd keep;
          write_at keep "\n"
        end
        else begin
          (* flip one bit somewhere in the record *)
          let off = start + int_of_float (Chaos.draw chaos *. float_of_int span) in
          let off = min off (size - 2) in
          let bit = 1 lsl (int_of_float (Chaos.draw chaos *. 8.) land 7) in
          write_at off (String.make 1 (Char.chr (Char.code data.[off] lxor bit)))
        end

(* ---------------------------- connections ----------------------------- *)

module Conn = struct
  (* a connection with more replies than this unsent reads no requests *)
  let max_unsent = 1 lsl 20

  type t = {
    id : int;
    fd : Unix.file_descr;
    dec : Wire.decoder;
    chaos : Chaos.t;
    mutable out : Bytes.t;  (* the unsent bytes are [out_pos, out_len) *)
    mutable out_pos : int;
    mutable out_len : int;
    (* chaos: chunks that must reach [out] in order, each no earlier
       than its due time — once anything is deferred, later sends defer
       too *)
    deferred : (float * string) Queue.t;
    mutable close_after_out : bool;
    mutable close_reason : string;
    mutable closed : bool;
  }

  let create ~chaos ~max_frame id fd =
    Unix.set_nonblock fd;
    if Obs.Trace.on () then Obs.Trace.emit (Obs.Trace.Conn_open { conn = id });
    {
      id;
      fd;
      dec = Wire.decoder ~max_payload:max_frame ~tags:"SPT" ();
      chaos;
      out = Bytes.create 256;
      out_pos = 0;
      out_len = 0;
      deferred = Queue.create ();
      close_after_out = false;
      close_reason = "eof";
      closed = false;
    }

  let closed t = t.closed
  let unsent t = t.out_len - t.out_pos
  let wants_read t = (not t.closed) && unsent t <= max_unsent

  let next_due t =
    if t.closed || Queue.is_empty t.deferred then None
    else Some (fst (Queue.peek t.deferred))

  let close t reason =
    if not t.closed then begin
      t.closed <- true;
      (* a job can hold a closed connection as a waiter: keep no buffers *)
      t.out <- Bytes.empty;
      t.out_pos <- 0;
      t.out_len <- 0;
      Queue.clear t.deferred;
      (try Unix.close t.fd with Unix.Unix_error _ -> ());
      if Obs.Trace.on () then
        Obs.Trace.emit (Obs.Trace.Conn_close { conn = t.id; reason })
    end

  let append t s =
    let n = String.length s and live = unsent t in
    if t.out_len + n > Bytes.length t.out then begin
      let out =
        if live + n > Bytes.length t.out then
          Bytes.create (max (live + n) (2 * Bytes.length t.out))
        else t.out
      in
      Bytes.blit t.out t.out_pos out 0 live;
      t.out <- out;
      t.out_pos <- 0;
      t.out_len <- live
    end;
    Bytes.blit_string s 0 t.out t.out_len n;
    t.out_len <- t.out_len + n

  let send t frame =
    if not (t.closed || t.close_after_out) then begin
      let s = Bytes.to_string frame in
      let n = String.length s in
      let now = Unix.gettimeofday () in
      if not (Queue.is_empty t.deferred) then Queue.push (now, s) t.deferred
      else if n > 1 && Chaos.roll t.chaos (fun c -> c.truncate_frame) then begin
        Chaos.fire t.chaos "truncate_frame";
        append t (String.sub s 0 (n / 2));
        t.close_after_out <- true;
        t.close_reason <- "truncate_frame"
      end
      else if n > 1 && Chaos.roll t.chaos (fun c -> c.partial_frame) then begin
        Chaos.fire t.chaos "partial_frame";
        append t (String.sub s 0 (n / 2));
        Queue.push (now +. Chaos.delay t.chaos, String.sub s (n / 2) (n - (n / 2))) t.deferred
      end
      else append t s
    end

  let fail t reason =
    send t (Wire.encode ~tag:'E' reason);
    t.close_after_out <- true;
    t.close_reason <- "protocol"

  let fill t chunk =
    if not t.closed then
      match Unix.read t.fd chunk 0 (Bytes.length chunk) with
      | 0 -> close t "eof"
      | n -> if not t.close_after_out then Wire.feed t.dec chunk 0 n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> close t "error"

  let next_frame t =
    if t.closed || t.close_after_out || unsent t > max_unsent then None
    else
      match Wire.decode t.dec with
      | Ok frame -> frame
      | Error e ->
          fail t (Wire.error_to_string e);
          None

  let flush t now =
    while (not (Queue.is_empty t.deferred)) && fst (Queue.peek t.deferred) <= now do
      append t (snd (Queue.pop t.deferred))
    done;
    if unsent t > 0 && not t.closed then begin
      match Unix.single_write t.fd t.out t.out_pos (unsent t) with
      | n ->
          t.out_pos <- t.out_pos + n;
          if unsent t = 0 then begin
            t.out_pos <- 0;
            t.out_len <- 0;
            (* a drained connection does not keep a large reply's buffer *)
            if Bytes.length t.out > 65536 then t.out <- Bytes.create 256
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> close t "error"
    end;
    if t.close_after_out && unsent t = 0 && Queue.is_empty t.deferred then
      close t t.close_reason
end

(* ------------------------------ the server ----------------------------- *)

type job = {
  spec : Journal.job;
  mutable result : string option;  (* [None] while queued or running *)
  mutable waiters : Conn.t list;  (* most recent first *)
  mutable attempts : int;  (* starts so far (a requeue starts afresh) *)
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
}

type t = {
  config : config;
  chaos : Chaos.t;
  stats : stats;
  jobs : (string, job) Hashtbl.t;
  pending : job Queue.t;  (* admitted, not started; only the loop touches it *)
  engine : job Supervisor.t;
  mutable kills : (float * job) list;  (* chaos: SIGKILLs due, (due, job) *)
  conns : (Unix.file_descr, Conn.t) Hashtbl.t;
  journal : (string * Sweep.Journal.t) option;
  mutable listener : Unix.file_descr option;  (* [None] once accepting stops *)
  mutable next_conn : int;
  mutable draining : bool;
}

let status_of_result r =
  if String.starts_with ~prefix:"ERROR: " r then "error"
  else if String.starts_with ~prefix:"QUARANTINED" r then "quarantined"
  else "ok"

let journal_append t record =
  Option.iter
    (fun (path, j) ->
      let key, value = Journal.encode record in
      Sweep.Journal.append j ~key value;
      if Chaos.roll t.chaos (fun c -> c.corrupt_journal) then begin
        Chaos.fire t.chaos "corrupt_journal";
        corrupt_tail t.chaos path
      end)
    t.journal

let result_frame id result = Wire.encode ~tag:'R' (id ^ "\t" ^ result)

let complete t job result delta =
  let id = job.spec.Journal.id and status = status_of_result result in
  job.result <- Some result;
  journal_append t (Journal.Finished { id; value = Sweep.join_delta result delta });
  t.stats.completed <- t.stats.completed + 1;
  if status = "error" then t.stats.errors <- t.stats.errors + 1;
  if status = "quarantined" then t.stats.quarantined <- t.stats.quarantined + 1;
  if Obs.Trace.on () then Obs.Trace.emit (Obs.Trace.Job_done { id; status });
  List.iter (fun conn -> Conn.send conn (result_frame id result)) (List.rev job.waiters);
  job.waiters <- []

let start_job t job =
  let { Journal.id; kind; payload; deadline_ms } = job.spec in
  if Obs.Trace.on () then
    Obs.Trace.emit (Obs.Trace.Job_start { id; attempt = job.attempts });
  job.attempts <- job.attempts + 1;
  Supervisor.spawn t.engine job ~key:id
    ?timeout:(Option.map (fun ms -> float_of_int ms /. 1000.) deadline_ms)
    (kind ^ "\t" ^ payload);
  if Chaos.roll t.chaos (fun c -> c.kill_child) then
    t.kills <- (Unix.gettimeofday () +. Chaos.delay t.chaos, job) :: t.kills

let kill_due t =
  let now = Unix.gettimeofday () in
  let due, later = List.partition (fun (at, _) -> at <= now) t.kills in
  t.kills <- later;
  List.iter
    (fun (_, job) -> if Supervisor.kill t.engine job then Chaos.fire t.chaos "kill_child")
    due

let settle t (job, settled) =
  match settled with
  | Supervisor.Finished (outcome, stats) ->
      let delta = Option.value stats ~default:"" in
      if delta <> "" then ignore (Obs.Stats.absorb_string delta);
      complete t job (Supervisor.outcome_to_string outcome) delta
  | Supervisor.Retrying -> t.stats.retries <- t.stats.retries + 1
  | Supervisor.Abandoned ->
      (* a worker killed by chaos or dead during the drain: back to the
         queue with its retry budget uncharged; a drained server leaves
         it journaled as accepted, to rerun after restart *)
      Queue.push job t.pending

(* ------------------------------ requests ------------------------------ *)

let health_json t =
  Obs.Json.Obj
    [
      ("status", Obs.Json.String (if t.draining then "draining" else "ok"));
      ("queued", Obs.Json.Int (Queue.length t.pending));
      ("running", Obs.Json.Int (Supervisor.live t.engine));
      ("completed", Obs.Json.Int t.stats.completed);
    ]

let stats_json t =
  let s = t.stats in
  Obs.Json.Obj
    [
      ("accepted", Obs.Json.Int s.accepted);
      ("rejected", Obs.Json.Int s.rejected);
      ("completed", Obs.Json.Int s.completed);
      ("errors", Obs.Json.Int s.errors);
      ("quarantined", Obs.Json.Int s.quarantined);
      ("dedup_cached", Obs.Json.Int s.dedup_cached);
      ("dedup_inflight", Obs.Json.Int s.dedup_inflight);
      ("retries", Obs.Json.Int s.retries);
      ("recovered", Obs.Json.Int s.recovered);
      ("conns", Obs.Json.Int s.conns_opened);
      ("chaos_injected", Obs.Json.Int (Chaos.injected t.chaos));
      ("queued", Obs.Json.Int (Queue.length t.pending));
      ("running", Obs.Json.Int (Supervisor.live t.engine));
      ("draining", Obs.Json.Bool t.draining);
    ]

(* A submit's payload: [kind TAB deadline_ms LF job-payload]. *)
let parse_submit payload =
  match String.index_opt payload '\n' with
  | None -> Error "malformed submit: no header line"
  | Some nl -> (
      let kind, deadline = Client.split_tab (String.sub payload 0 nl) in
      let payload = String.sub payload (nl + 1) (String.length payload - nl - 1) in
      match Journal.deadline_of_string deadline with
      | Error s -> Error ("malformed submit: deadline " ^ s)
      | Ok _ when kind = "" -> Error "malformed submit: empty kind"
      | Ok deadline_ms ->
          Ok { Journal.id = Client.job_id ~kind ~payload; kind; deadline_ms; payload })

let reject t conn id reason =
  t.stats.rejected <- t.stats.rejected + 1;
  if Obs.Trace.on () then
    Obs.Trace.emit
      (Obs.Trace.Job_reject
         { id; queued = Queue.length t.pending; limit = t.config.queue_limit });
  Conn.send conn (Wire.encode ~tag:'X' (id ^ "\t" ^ reason))

let handle_submit t conn spec =
  let id = spec.Journal.id in
  let submitted disposition =
    if Obs.Trace.on () then
      Obs.Trace.emit (Obs.Trace.Job_submit { id; kind = spec.kind; disposition })
  in
  (* chaos: drop the connection instead of answering — admission has
     already happened, so the client's retry dedups *)
  let answer frames =
    if Chaos.roll t.chaos (fun c -> c.drop_conn) then begin
      Chaos.fire t.chaos "drop_conn";
      Conn.close conn "drop_conn"
    end
    else List.iter (Conn.send conn) frames
  in
  let ack = Wire.encode ~tag:'A' id in
  match Hashtbl.find_opt t.jobs id with
  | Some { result = Some result; _ } ->
      submitted "cached";
      t.stats.dedup_cached <- t.stats.dedup_cached + 1;
      answer [ ack; result_frame id result ]
  | Some job ->
      submitted "inflight";
      t.stats.dedup_inflight <- t.stats.dedup_inflight + 1;
      if not (List.memq conn job.waiters) then job.waiters <- conn :: job.waiters;
      answer [ ack ]
  | None when t.draining -> reject t conn id "draining"
  | None when Queue.length t.pending >= t.config.queue_limit ->
      reject t conn id
        (Printf.sprintf "overloaded: %d jobs queued (limit %d)" (Queue.length t.pending)
           t.config.queue_limit)
  | None ->
      let job = { spec; result = None; waiters = [ conn ]; attempts = 0 } in
      Hashtbl.replace t.jobs id job;
      journal_append t (Journal.Accepted spec);
      Queue.push job t.pending;
      submitted "new";
      t.stats.accepted <- t.stats.accepted + 1;
      answer [ ack ]

let rec serve_frames t conn =
  match Conn.next_frame conn with
  | None -> ()
  | Some frame ->
      (match frame with
      | { Wire.tag = 'S'; payload } -> (
          match parse_submit payload with
          | Ok spec -> handle_submit t conn spec
          | Error reason -> Conn.fail conn reason)
      | { tag = 'P'; _ } ->
          Conn.send conn (Wire.encode ~tag:'H' (Obs.Json.to_string (health_json t)))
      | { tag = 'T'; _ } ->
          Conn.send conn (Wire.encode ~tag:'U' (Obs.Json.to_string (stats_json t)))
      | { tag; _ } -> Conn.fail conn (Printf.sprintf "unexpected request tag %C" tag));
      serve_frames t conn

(* ------------------------------ the loop ------------------------------- *)

let recover t path =
  let { Journal.cached; queued } = Journal.recover (Sweep.Journal.load path) in
  let add spec result =
    let job = { spec; result; waiters = []; attempts = 0 } in
    Hashtbl.replace t.jobs spec.Journal.id job;
    t.stats.recovered <- t.stats.recovered + 1;
    job
  in
  (* the stats delta is absorbed into this process's registry, so
     clients are served the bare result *)
  List.iter (fun (spec, value) -> ignore (add spec (Some (Sweep.replay_value value)))) cached;
  List.iter (fun spec -> Queue.push (add spec None) t.pending) queued

let listen_on socket =
  let addr = Client.sockaddr_of_spec socket in
  let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  try
    (match addr with
    | Unix.ADDR_UNIX path when Sys.file_exists path -> Unix.unlink path
    | _ -> ());
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd addr;
    Unix.listen fd 64;
    Unix.set_nonblock fd;
    fd
  with Unix.Unix_error (err, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    failwith
      (Printf.sprintf "Server: cannot listen on %s: %s" socket (Unix.error_message err))

let stop_accepting t =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.listener;
  t.listener <- None

let accept t listener =
  match Unix.accept ~cloexec:true listener with
  | fd, _ ->
      let conn = Conn.create ~chaos:t.chaos ~max_frame:t.config.max_frame t.next_conn fd in
      t.next_conn <- t.next_conn + 1;
      Hashtbl.replace t.conns fd conn;
      t.stats.conns_opened <- t.stats.conns_opened + 1
  | exception
      Unix.Unix_error
        ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _) ->
      ()

let start_drain t =
  t.draining <- true;
  stop_accepting t;
  (* retry-waiting jobs are abandoned like queued ones: journaled as
     accepted, rerun on restart *)
  List.iter (fun job -> Queue.push job t.pending) (Supervisor.abandon t.engine);
  if Obs.Trace.on () then
    Obs.Trace.emit
      (Obs.Trace.Server_drain
         { queued = Queue.length t.pending; running = Supervisor.live t.engine })

let drop_closed t =
  Hashtbl.filter_map_inplace (fun _ c -> if Conn.closed c then None else Some c) t.conns

let unsent_fds t =
  Hashtbl.fold (fun fd c acc -> if Conn.unsent c > 0 then fd :: acc else acc) t.conns []

(* One turn: start what fits, wait for input, a finished job or a due
   timer, handle it, and answer. *)
let step t ~chunk =
  Supervisor.tick t.engine;
  kill_due t;
  if not t.draining then
    while Supervisor.room t.engine && not (Queue.is_empty t.pending) do
      start_job t (Queue.pop t.pending)
    done;
  let now = Unix.gettimeofday () in
  let timeout = ref 0.25 in
  let consider due = timeout := Float.max 0. (Float.min !timeout (due -. now)) in
  Option.iter consider (Supervisor.next_deadline t.engine);
  List.iter (fun (due, _) -> consider due) t.kills;
  Hashtbl.iter (fun _ c -> Option.iter consider (Conn.next_due c)) t.conns;
  let rfds =
    Option.to_list t.listener
    @ Hashtbl.fold (fun fd c acc -> if Conn.wants_read c then fd :: acc else acc) t.conns []
    @ Supervisor.fds t.engine
  in
  (* the write set only wakes the loop; the writes come below *)
  (match Unix.select rfds (unsent_fds t) [] !timeout with
  | ready, _, _ ->
      List.iter
        (fun fd ->
          if Some fd = t.listener then accept t fd
          else
            match Hashtbl.find_opt t.conns fd with
            | Some conn -> Conn.fill conn chunk
            | None -> Option.iter (settle t) (Supervisor.read t.engine fd))
        ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  (* Answer each connection and write what its socket takes now; the
     write before answering makes room for requests parked over the
     output bound.  Sockets are non-blocking: no client stalls the loop. *)
  let now = Unix.gettimeofday () in
  Hashtbl.iter
    (fun _ conn ->
      Conn.flush conn now;
      serve_frames t conn;
      Conn.flush conn now)
    t.conns;
  drop_closed t

(* A short best-effort flush, so waiters of jobs that finished during
   the drain see their results before the close. *)
let final_flush t =
  let deadline = Unix.gettimeofday () +. 0.5 in
  let pending () =
    Hashtbl.fold
      (fun _ c acc -> acc || Conn.unsent c > 0 || Conn.next_due c <> None)
      t.conns false
  in
  while pending () && Unix.gettimeofday () < deadline do
    (try ignore (Unix.select [] (unsent_fds t) [] 0.05)
     with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    let now = Unix.gettimeofday () in
    Hashtbl.iter (fun _ conn -> Conn.flush conn now) t.conns;
    drop_closed t
  done

(* SIGTERM and SIGINT request a drain and SIGPIPE is ignored until the
   returned function restores the previous dispositions. *)
let install_signals drain_req =
  let save s h = try Some (s, Sys.signal s h) with Invalid_argument _ | Sys_error _ -> None in
  let drain = Sys.Signal_handle (fun _ -> Atomic.set drain_req true) in
  let saved =
    List.filter_map Fun.id
      [ save Sys.sigterm drain; save Sys.sigint drain; save Sys.sigpipe Sys.Signal_ignore ]
  in
  fun () -> List.iter (fun (s, b) -> Sys.set_signal s b) saved

let run ?(config = default_config) ?journal ?(resume = false)
    ?(should_stop = fun () -> false) ?(on_ready = fun () -> ()) ~socket ~handler () =
  validate_config config;
  let journal_out =
    Option.map (fun path -> (path, Sweep.Journal.open_out ~resume path)) journal
  in
  let listener = listen_on socket in
  let t =
    {
      config;
      chaos = Chaos.create config.chaos;
      stats =
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
        };
      jobs = Hashtbl.create 64;
      pending = Queue.create ();
      engine =
        Supervisor.create ~jobs:config.jobs
          ~work:(fun request ->
            let kind, payload = Client.split_tab request in
            handler ~kind ~payload)
          config.supervisor;
      kills = [];
      conns = Hashtbl.create 16;
      journal = journal_out;
      listener = Some listener;
      next_conn = 0;
      draining = false;
    }
  in
  let drain_req = Atomic.make false in
  let restore_signals = install_signals drain_req in
  let cleanup () =
    restore_signals ();
    stop_accepting t;
    (* reap every worker, also on the exception path *)
    Supervisor.shutdown t.engine;
    Hashtbl.iter (fun _ conn -> Conn.close conn "shutdown") t.conns;
    Hashtbl.reset t.conns;
    Option.iter (fun (_, j) -> Sweep.Journal.close j) t.journal;
    match Client.sockaddr_of_spec socket with
    | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  (match (journal, resume) with Some path, true -> recover t path | _ -> ());
  if Obs.Trace.on () then
    Obs.Trace.emit
      (Obs.Trace.Server_start
         { socket; jobs = config.jobs; queue_limit = config.queue_limit });
  on_ready ();
  let chunk = Bytes.create 4096 in
  let rec loop () =
    if (Atomic.get drain_req || should_stop ()) && not t.draining then start_drain t;
    if not (t.draining && Supervisor.idle t.engine) then begin
      step t ~chunk;
      loop ()
    end
  in
  loop ();
  final_flush t
