type config = {
  retries : int;
  timeout : float option;
  kill_grace : float;
  heartbeat_interval : int;
  backoff : Backoff.config;
}

let default_config =
  {
    retries = 2;
    timeout = None;
    kill_grace = 0.5;
    heartbeat_interval = 1;
    backoff = Backoff.default;
  }

let validate_config c =
  if c.retries < 0 then
    invalid_arg "Supervisor: retries must be >= 0";
  (match c.timeout with
  | Some t when t <= 0. -> invalid_arg "Supervisor: timeout must be positive"
  | _ -> ());
  if c.kill_grace <= 0. then
    invalid_arg "Supervisor: kill_grace must be positive";
  if c.heartbeat_interval < 0 then
    invalid_arg "Supervisor: heartbeat_interval must be >= 0";
  Backoff.validate c.backoff

type failure =
  | Exited of int
  | Signaled of int
  | Unresponsive of { elapsed : float; limit : float; forced : bool }
  | Protocol of string

let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigalrm then "SIGALRM"
  else if s = Sys.sigpipe then "SIGPIPE"
  else if s = Sys.sigbus then "SIGBUS"
  else if s = Sys.sigill then "SIGILL"
  else if s = Sys.sigfpe then "SIGFPE"
  else if s = Sys.sighup then "SIGHUP"
  else if s = Sys.sigquit then "SIGQUIT"
  else "signal#" ^ string_of_int s

let pp_failure ppf = function
  | Exited n -> Format.fprintf ppf "exited %d" n
  | Signaled s -> Format.fprintf ppf "killed by %s" (signal_name s)
  | Unresponsive { elapsed; limit; forced } ->
      Format.fprintf ppf "unresponsive after %.3fs (limit %.3fs%s)" elapsed limit
        (if forced then ", forced SIGKILL" else "")
  | Protocol msg -> Format.fprintf ppf "protocol error: %s" msg

let failure_to_string f = Format.asprintf "%a" pp_failure f

let to_misbehavior = function
  | Unresponsive { elapsed; limit; forced = _ } ->
      Some (Misbehavior.Unresponsive { elapsed; limit })
  | Exited _ | Signaled _ | Protocol _ -> None

type quarantine = { key : string; attempts : int; failures : failure list }

let quarantine_to_string q =
  Printf.sprintf "QUARANTINED after %d attempts: %s" q.attempts
    (String.concat "; " (List.map failure_to_string q.failures))

type outcome = Done of string | Failed of string | Quarantined of quarantine

let outcome_to_string = function
  | Done r -> r
  | Failed msg -> "ERROR: " ^ msg
  | Quarantined q -> quarantine_to_string q

(* ------------------------------ child side ------------------------------ *)

let heartbeat_byte = Wire.encode_bare 'H'

(* Runs [thunk], speaks the reply protocol on [w], and never returns.
   [Unix._exit] (not [exit]) so inherited channel buffers — the parent's
   trace sink, the parent's stdout — are not flushed a second time. *)
let child_main config thunk w =
  Obs.Trace.detach_in_child ();
  (* Inherited shards would make the child's stats drain re-count the
     parent's whole history; from here on the child accumulates only its
     own task. *)
  Obs.Stats.reset ();
  (* The parent's handlers must not survive the fork: a server's SIGTERM
     drain handler would swallow the watchdog's SIGTERM and turn every
     watchdog kill into a forced SIGKILL.  A reply to a parent that is
     already gone is dropped, not fatal. *)
  Sys.set_signal Sys.sigterm Sys.Signal_default;
  Sys.set_signal Sys.sigint Sys.Signal_default;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if config.heartbeat_interval > 0 then begin
    Sys.set_signal Sys.sigalrm
      (Sys.Signal_handle
         (fun _ ->
           (try Wire.write_all w heartbeat_byte
            with Unix.Unix_error _ -> ());
           ignore (Unix.alarm config.heartbeat_interval)));
    ignore (Unix.alarm config.heartbeat_interval)
  end;
  let reply tag payload =
    (* Disarm heartbeats first so no 'H' can interleave the frame. *)
    ignore (Unix.alarm 0);
    if config.heartbeat_interval > 0 then
      Sys.set_signal Sys.sigalrm Sys.Signal_ignore;
    (try Wire.write_all w (Wire.encode ~tag payload) with Unix.Unix_error _ -> ())
  in
  let code =
    match thunk () with
    | s ->
        (* Stats travel in their own frame, before the result: the parent
           keeps the snapshot only if the same attempt's 'R' lands (a
           child dying in between is retried, and the stale snapshot dies
           with its attempt). *)
        (if Obs.Stats.on () then
           match Obs.Stats.drain () with
           | [] -> ()
           | snap -> reply 'S' (Obs.Stats.to_string snap));
        reply 'R' s;
        0
    | exception Sys.Break -> 130
    | exception exn ->
        (* Even in-process-fatal conditions (Stack_overflow, Out_of_memory)
           are contained here: the whole point of process isolation is that
           no task, however pathological, takes its parent down with it. *)
        reply 'E' (Printexc.to_string exn);
        0
  in
  Unix._exit code

(* ------------------------------ the engine ------------------------------ *)

(* A task outlives its attempts: the thunk, its per-attempt limit and its
   failure history carry over to every retry. *)
type 'a task = {
  tag : 'a;
  name : string;
  thunk : unit -> string;
  limit : float option;
  mutable failures : failure list;  (* newest first *)
}

(* One attempt: a live child and what it has said so far. *)
type 'a child = {
  task : 'a task;
  pid : int;
  fd : Unix.file_descr;
  dec : Wire.decoder;
  start : float;
  mutable reply : (char * string) option;
  mutable stats : string option;
  mutable bad : string option;
  mutable term_at : float option;
  mutable killed : bool;
  mutable timed_out : bool;
  mutable dropped : bool;  (* killed by the caller: settles [Abandoned] *)
}

type 'a t = {
  config : config;
  jobs : int;
  chunk : Bytes.t;
  mutable live : 'a child list;
  mutable waiting : (float * 'a task) list;  (* retries, by due time *)
  mutable abandoning : bool;
  mutable prev_cutime : float;
  mutable prev_cstime : float;
}

type settled =
  | Finished of outcome * string option
  | Retrying
  | Abandoned

let create ~jobs config =
  validate_config config;
  if jobs < 1 then invalid_arg "Supervisor: jobs must be >= 1";
  let tm = Unix.times () in
  {
    config;
    jobs;
    chunk = Bytes.create 4096;
    live = [];
    waiting = [];
    abandoning = false;
    prev_cutime = tm.Unix.tms_cutime;
    prev_cstime = tm.Unix.tms_cstime;
  }

let live t = List.length t.live
let room t = List.length t.live < t.jobs
let idle t = t.live = [] && t.waiting = []
let fds t = List.map (fun c -> c.fd) t.live

let fork_child t task =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      child_main t.config task.thunk w
  | pid ->
      Unix.close w;
      if Obs.Trace.on () then
        Obs.Trace.emit
          (Obs.Trace.Child_spawn
             { key = task.name; pid; attempt = List.length task.failures });
      t.live <-
        {
          task;
          pid;
          fd = r;
          dec = Wire.decoder ~tags:"RES" ~bare:"H" ();
          start = Unix.gettimeofday ();
          reply = None;
          stats = None;
          bad = None;
          term_at = None;
          killed = false;
          timed_out = false;
          dropped = false;
        }
        :: t.live

let spawn t tag ~key ?timeout thunk =
  let limit = match timeout with Some _ -> timeout | None -> t.config.timeout in
  fork_child t { tag; name = key; thunk; limit; failures = [] }

(* When [tick] next has work for child [c]: its watchdog SIGTERM, or
   the SIGKILL escalation.  The scans below are top-level recursions,
   not closures: the caller's loop runs them on every wake-up, and a
   server's short campaign should not grow its heap for them. *)
let child_deadline t c =
  if c.reply <> None then infinity
  else
    match (c.term_at, c.task.limit) with
    | None, Some limit -> c.start +. limit
    | Some at, _ when not c.killed -> at +. t.config.kill_grace
    | _ -> infinity

let rec earliest t acc = function
  | [] -> acc
  | c :: rest -> earliest t (Float.min acc (child_deadline t c)) rest

let next_deadline t =
  let retry = match t.waiting with (due, _) :: _ -> due | [] -> infinity in
  let due = earliest t retry t.live in
  if due = infinity then None else Some due

let send_kill c signal name =
  (try Unix.kill c.pid signal with Unix.Unix_error _ -> ());
  if Obs.Trace.on () then
    Obs.Trace.emit
      (Obs.Trace.Child_kill
         {
           key = c.task.name;
           pid = c.pid;
           signal = name;
           elapsed = Unix.gettimeofday () -. c.start;
         })

let rec watch t now = function
  | [] -> ()
  | c :: rest ->
      if c.reply = None then begin
        (match c.task.limit with
        | Some limit when c.term_at = None && now -. c.start > limit ->
            c.timed_out <- true;
            c.term_at <- Some now;
            send_kill c Sys.sigterm "sigterm"
        | _ -> ());
        match c.term_at with
        | Some at when (not c.killed) && now -. at > t.config.kill_grace ->
            c.killed <- true;
            send_kill c Sys.sigkill "sigkill"
        | _ -> ()
      end;
      watch t now rest

let rec respawn t now =
  match t.waiting with
  | (due, task) :: rest when due <= now && room t ->
      t.waiting <- rest;
      fork_child t task;
      respawn t now
  | _ -> ()

let tick t =
  let now = Unix.gettimeofday () in
  watch t now t.live;
  respawn t now

let kill t tag =
  match
    List.find_opt
      (fun c -> c.task.tag == tag && c.reply = None && not c.dropped)
      t.live
  with
  | None -> false
  | Some c ->
      c.dropped <- true;
      c.killed <- true;
      send_kill c Sys.sigkill "sigkill";
      true

let abandon t =
  t.abandoning <- true;
  let dropped = List.map (fun (_, task) -> task.tag) t.waiting in
  t.waiting <- [];
  dropped

let terminate t =
  ignore (abandon t);
  let now = Unix.gettimeofday () in
  List.iter
    (fun c ->
      if c.reply = None && c.term_at = None then begin
        c.term_at <- Some now;
        send_kill c Sys.sigterm "sigterm"
      end)
    t.live

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let rec parse c =
  if c.reply = None && c.bad = None then
    match Wire.decode c.dec with
    | Ok None -> ()
    | Ok (Some { Wire.tag = 'H'; _ }) ->
        if Obs.Trace.on () then
          Obs.Trace.emit
            (Obs.Trace.Child_heartbeat { key = c.task.name; pid = c.pid });
        parse c
    | Ok (Some { Wire.tag = 'S'; payload }) ->
        c.stats <- Some payload;
        parse c
    | Ok (Some { Wire.tag; payload }) -> c.reply <- Some (tag, payload)
    | Error e -> c.bad <- Some (Wire.error_to_string e)

let reap t c =
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  let _, status = waitpid_retry c.pid in
  let tm = Unix.times () in
  let cpu_user = tm.Unix.tms_cutime -. t.prev_cutime in
  let cpu_sys = tm.Unix.tms_cstime -. t.prev_cstime in
  t.prev_cutime <- tm.Unix.tms_cutime;
  t.prev_cstime <- tm.Unix.tms_cstime;
  let status_str =
    match status with
    | Unix.WEXITED n -> "exit:" ^ string_of_int n
    | Unix.WSIGNALED s -> "signal:" ^ signal_name s
    | Unix.WSTOPPED s -> "stopped:" ^ signal_name s
  in
  if Obs.Trace.on () then
    Obs.Trace.emit
      (Obs.Trace.Child_exit
         { key = c.task.name; pid = c.pid; status = status_str; cpu_user; cpu_sys });
  t.live <- List.filter (fun c' -> c' != c) t.live;
  match c.reply with
  | Some ('R', payload) -> Finished (Done payload, c.stats)
  | Some ('E', payload) -> Finished (Failed payload, None)
  | Some _ -> assert false
  | None when c.dropped || t.abandoning ->
      (* The caller killed it, or is stopping: neither retried nor
         charged, so a resume (or the caller's requeue) reruns it. *)
      Abandoned
  | None ->
      let failure =
        if c.timed_out then
          Unresponsive
            {
              elapsed = Unix.gettimeofday () -. c.start;
              limit = Option.value c.task.limit ~default:0.;
              forced = c.killed;
            }
        else
          match c.bad with
          | Some msg -> Protocol msg
          | None -> (
              match status with
              | Unix.WEXITED 0 -> Protocol "no reply before exit"
              | Unix.WEXITED n -> Exited n
              | Unix.WSIGNALED s | Unix.WSTOPPED s -> Signaled s)
      in
      (match to_misbehavior failure with
      | Some m ->
          if Obs.Trace.on () then
            Obs.Trace.emit
              (Obs.Trace.Misbehavior
                 { label = Misbehavior.label m; detail = Misbehavior.to_string m })
      | None -> ());
      let task = c.task in
      task.failures <- failure :: task.failures;
      let attempts = List.length task.failures in
      if attempts > t.config.retries then begin
        if Obs.Trace.on () then
          Obs.Trace.emit
            (Obs.Trace.Cell_quarantined
               { key = task.name; attempts; reason = failure_to_string failure });
        Finished
          ( Quarantined
              { key = task.name; attempts; failures = List.rev task.failures },
            None )
      end
      else begin
        let delay =
          Backoff.delay t.config.backoff ~key:task.name ~attempt:attempts
        in
        if Obs.Trace.on () then
          Obs.Trace.emit
            (Obs.Trace.Cell_retry { key = task.name; attempt = attempts; delay });
        let due = Unix.gettimeofday () +. delay in
        let rec insert = function
          | [] -> [ (due, task) ]
          | (d, _) :: _ as l when due < d -> (due, task) :: l
          | x :: rest -> x :: insert rest
        in
        t.waiting <- insert t.waiting;
        Retrying
      end

let read t fd =
  match List.find_opt (fun c -> c.fd = fd) t.live with
  | None -> None
  | Some c -> (
      match Unix.read c.fd t.chunk 0 (Bytes.length t.chunk) with
      | 0 -> Some (c.task.tag, reap t c)
      | n ->
          Wire.feed c.dec t.chunk 0 n;
          parse c;
          None
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> None)

let shutdown t =
  List.iter
    (fun c -> try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ())
    t.live;
  List.iter
    (fun c ->
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      ignore (waitpid_retry c.pid))
    t.live;
  t.live <- [];
  t.waiting <- []

(* --------------------------- ordered delivery --------------------------- *)

let run ?(config = default_config) ?(should_stop = fun () -> false) ~jobs
    ~tasks ~key ?(inline = fun _ -> None) ~work
    ?(on_stats = fun ~task:_ payload -> ignore (Obs.Stats.absorb_string payload))
    ?(complete = fun _ _ -> ()) ~consume () =
  if jobs < 1 then invalid_arg "Supervisor.run: jobs must be >= 1";
  if tasks < 0 then invalid_arg "Supervisor.run: tasks must be >= 0";
  let t = create ~jobs config in
  let outcomes : outcome option array = Array.make (max tasks 1) None in
  let next_consume = ref 0 in
  let deliver idx outcome =
    complete idx outcome;
    outcomes.(idx) <- Some outcome;
    while
      !next_consume < tasks && outcomes.(!next_consume) <> None
    do
      (match outcomes.(!next_consume) with
      | Some o -> consume !next_consume o
      | None -> assert false);
      incr next_consume
    done
  in
  let settle (idx, settled) =
    match settled with
    | Finished (outcome, stats) ->
        Option.iter (on_stats ~task:idx) stats;
        deliver idx outcome
    | Retrying | Abandoned -> ()
  in
  let next_fresh = ref 0 in
  let interrupted = ref false in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () ->
      while (not (idle t)) || ((not !interrupted) && !next_fresh < tasks) do
        if (not !interrupted) && should_stop () then begin
          (* Under interruption the children die because we (or the
             terminal's process group) killed them: abandon their tasks
             so a resume reruns them, charging no retry. *)
          interrupted := true;
          terminate t
        end;
        tick t;
        while (not !interrupted) && room t && !next_fresh < tasks do
          let idx = !next_fresh in
          incr next_fresh;
          match inline idx with
          | Some s -> deliver idx (Done s)
          | None -> spawn t idx ~key:(key idx) (fun () -> work idx)
        done;
        let wait =
          match next_deadline t with
          | Some due -> Float.max 0. (Float.min 0.25 (due -. Unix.gettimeofday ()))
          | None -> 0.25
        in
        match fds t with
        | [] ->
            (* Nothing in flight: we are waiting out a retry backoff. *)
            if not (idle t) then Unix.sleepf wait
        | fds -> (
            match Unix.select fds [] [] wait with
            | ready, _, _ ->
                List.iter (fun fd -> Option.iter settle (read t fd)) ready
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      done)
