type config = {
  retries : int;
  timeout : float option;
  kill_grace : float;
  backoff : Backoff.config;
}

let default_config =
  {
    retries = 2;
    timeout = None;
    kill_grace = 0.5;
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

(* ------------------------------ worker side ----------------------------- *)

external domain_is_multicore : unit -> bool = "harness_domain_is_multicore"
[@@noalloc]

external close_inherited : Unix.file_descr -> Unix.file_descr -> unit
  = "harness_close_inherited"
[@@noalloc]

external hup_on_parent_death : int -> bool = "harness_hup_on_parent_death"
[@@noalloc]

let ready_byte = Wire.encode_bare 'H'

(* Fork copies [Filename]'s temp-name generator, so sibling workers would
   draw the same names, and a name one worker freed another could take.
   Each worker draws its names in a directory of its own instead, named
   after its pid so the parent can find it.  The worker removes it before
   it exits; the parent removes it after reaping a worker that could not. *)
let temp_dir pid =
  Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "worker-%d" pid)

(* Symlinks are unlinked, never followed. *)
let rec remove_tree path =
  try
    if (Unix.lstat path).Unix.st_kind = Unix.S_DIR then begin
      Array.iter (fun name -> remove_tree (Filename.concat path name)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Unix.unlink path
  with Unix.Unix_error _ | Sys_error _ -> ()

(* What a fresh fork gave a task.  The trace sink and recorder are the
   worker's own capture, started afresh; an inherited stats table would
   make a stats drain re-count the parent's history (or the previous
   task's); the parent's signal handlers must not survive the fork: a
   server's SIGTERM drain handler would swallow the watchdog's SIGTERM
   and turn every watchdog kill into a forced SIGKILL.  A reply to a
   parent that is already gone is dropped, not fatal. *)
let restore capture =
  Obs.Flight.begin_task capture;
  Obs.Stats.reset ();
  Sys.set_signal Sys.sigterm Sys.Signal_default;
  Sys.set_signal Sys.sigint Sys.Signal_default;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* The next 'T' request on [fd]; [None] at EOF. *)
let rec next_request fd dec buf =
  match Wire.decode dec with
  | Ok (Some { Wire.payload; _ }) -> Some payload
  | Error _ -> None
  | Ok None -> (
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> None
      | n ->
          Wire.feed dec buf 0 n;
          next_request fd dec buf
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> next_request fd dec buf
      | exception Unix.Unix_error _ -> None)

(* Serves requests from [req] until EOF and never returns.  Each reply
   is one write: ['V'] and ['S'] (both optional), then ['R'] or ['E'],
   then — when the worker stays for another task — a bare ['H'] that
   tells the parent so.
   A worker retires after a raise, so OOM or stack-overflow state never
   carries over, and once a task spawned a domain, since it could no
   longer fork.  [Unix._exit] (not [exit]) so inherited channel buffers —
   the parent's trace sink, the parent's stdout — are not flushed a
   second time. *)
let worker_main work ~parent ~req ~rep =
  close_inherited req rep;
  let tmp = temp_dir (Unix.getpid ()) in
  (match Unix.mkdir tmp 0o700 with
  | () | (exception Unix.Unix_error (Unix.EEXIST, _, _)) -> Filename.set_temp_dir_name tmp
  | exception Unix.Unix_error _ -> ());
  let quit code =
    remove_tree tmp;
    Unix._exit code
  in
  (* An orphan quits at once, mid-task too, instead of finishing a task
     nobody will read.  Elsewhere than Linux it quits at its next
     request, when it reads EOF. *)
  Sys.set_signal Sys.sighup (Sys.Signal_handle (fun _ -> quit 0));
  if not (hup_on_parent_death parent) then quit 0;
  let capture = Obs.Flight.capture_in_child () in
  let dec = Wire.decoder ~max_payload:max_int ~tags:"T" () in
  let buf = Bytes.create 4096 in
  let rec serve () =
    restore capture;
    match next_request req dec buf with
    | None -> quit 0
    | Some request ->
        let out = Buffer.create 256 in
        let frame tag payload = Buffer.add_bytes out (Wire.encode ~tag payload) in
        (* Events and stats travel in their own frames, before the
           result: the parent keeps them only if the same attempt's
           reply lands. *)
        let ship_events () = Option.iter (frame 'V') (Obs.Flight.end_task capture) in
        let stays =
          match work request with
          | s ->
              ship_events ();
              (if Obs.Stats.on () then
                 match Obs.Stats.drain () with
                 | [] -> ()
                 | snap -> frame 'S' (Obs.Stats.to_string snap));
              frame 'R' s;
              not (domain_is_multicore ())
          | exception Sys.Break -> quit 130
          | exception exn ->
              (* Even in-process-fatal conditions (Stack_overflow,
                 Out_of_memory) are contained here: no task, however
                 pathological, takes its parent down with it. *)
              ship_events ();
              frame 'E' (Printexc.to_string exn);
              false
        in
        if stays then Buffer.add_bytes out ready_byte;
        (try Wire.write_all rep (Buffer.to_bytes out) with Unix.Unix_error _ -> ());
        if stays then serve () else quit 0
  in
  serve ()

(* ------------------------------ the engine ------------------------------ *)

(* A task outlives its attempts: its request, its per-attempt limit and
   its failure history carry over to every retry. *)
type 'a task = {
  tag : 'a;
  name : string;
  request : string;
  limit : float option;
  mutable failures : failure list;  (* newest first *)
}

(* One attempt of a task, on a worker. *)
type 'a attempt = {
  task : 'a task;
  start : float;
  mutable events : string option;
  mutable stats : string option;
  mutable term_at : float option;
  mutable killed : bool;
  mutable timed_out : bool;
  mutable dropped : bool;  (* killed by the caller: settles [Abandoned] *)
}

type 'a state =
  | Busy of 'a attempt
  | Replied  (* answered; a bare 'H' next means it takes another task *)
  | Ready
  | Retiring  (* exits next: it raised, spawned a domain, was killed or wrote garbage *)

(* A worker process: the parent writes requests to [req] and reads
   replies from [rep].  [slot] (1 .. jobs) names its relayed trace
   stream; a replacement takes the slot of the worker it replaces. *)
type 'a worker = {
  pid : int;
  slot : int;
  req : Unix.file_descr;
  rep : Unix.file_descr;
  dec : Wire.decoder;
  tmp : string;  (* its temp directory *)
  mutable state : 'a state;
  mutable key : string;  (* its current or last task, for traces *)
  mutable bad : string option;  (* why its output failed to decode *)
}

type 'a t = {
  config : config;
  jobs : int;
  work : string -> string;
  chunk : Bytes.t;
  mutable workers : 'a worker list;
  queue : 'a task Queue.t;  (* spawned, waiting for a ready worker *)
  mutable waiting : (float * 'a task) list;  (* retries, by due time *)
  mutable abandoning : bool;
  mutable prev_cutime : float;
  mutable prev_cstime : float;
}

type settled =
  | Finished of outcome * string option
  | Retrying
  | Abandoned

let create ~jobs ~work config =
  validate_config config;
  if jobs < 1 then invalid_arg "Supervisor: jobs must be >= 1";
  let tm = Unix.times () in
  {
    config;
    jobs;
    work;
    chunk = Bytes.create 4096;
    workers = [];
    queue = Queue.create ();
    waiting = [];
    abandoning = false;
    prev_cutime = tm.Unix.tms_cutime;
    prev_cstime = tm.Unix.tms_cstime;
  }

(* The scans below are top-level recursions, not closures: the caller's
   loop runs them on every wake-up, and a server's short campaign should
   not grow its heap for them. *)
let rec busy n = function
  | [] -> n
  | { state = Busy _; _ } :: rest -> busy (n + 1) rest
  | _ :: rest -> busy n rest

let rec ready = function
  | [] -> None
  | ({ state = Ready; _ } as w) :: _ -> Some w
  | _ :: rest -> ready rest

let live t = busy (Queue.length t.queue) t.workers
let room t = live t < t.jobs
let idle t = live t = 0 && t.waiting = []
let fds t = List.map (fun w -> w.rep) t.workers

let rec free_slot t slot =
  if List.exists (fun w -> w.slot = slot) t.workers then free_slot t (slot + 1)
  else slot

let fork_worker t task =
  let slot = free_slot t 1 in
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  let parent = Unix.getpid () in
  match Unix.fork () with
  | 0 -> worker_main t.work ~parent ~req:req_r ~rep:rep_w
  | pid ->
      Unix.close req_r;
      Unix.close rep_w;
      if Obs.Trace.on () then
        Obs.Trace.emit
          (Obs.Trace.Child_spawn
             { key = task.name; pid; attempt = List.length task.failures });
      let w =
        {
          pid;
          slot;
          req = req_w;
          rep = rep_r;
          (* Uncapped: the peer is this process's own fork, and a traced
             task's events can outgrow the socket default. *)
          dec = Wire.decoder ~max_payload:max_int ~tags:"VRES" ~bare:"H" ();
          tmp = temp_dir pid;
          state = Ready;
          key = task.name;
          bad = None;
        }
      in
      t.workers <- w :: t.workers;
      w

(* Write [task]'s request to [w]; false when [w] is gone.  SIGPIPE is
   ignored for the write only, so a sweep's own output keeps the
   disposition it had. *)
let send w task =
  let previous = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let sent =
    match Wire.write_all w.req (Wire.encode ~tag:'T' task.request) with
    | () -> true
    | exception Unix.Unix_error _ -> false
  in
  Sys.set_signal Sys.sigpipe previous;
  sent

let begin_attempt w task =
  w.key <- task.name;
  w.state <-
    Busy
      {
        task;
        start = Unix.gettimeofday ();
        events = None;
        stats = None;
        term_at = None;
        killed = false;
        timed_out = false;
        dropped = false;
      }

(* A worker that must take no further task: it exits or is killed, and
   its slot frees when it is reaped. *)
let retire w =
  w.state <- Retiring;
  try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ()

(* Hand queued tasks to ready workers, forking while fewer than [jobs]
   workers exist.  A ready worker that turns out to be gone retires and
   its task stays queued, uncharged: it never started.  A fresh worker
   gets its task even if the write fails, so a worker that dies at birth
   is an attempt that failed, not an endless loop. *)
let rec dispatch t =
  if not (Queue.is_empty t.queue) then
    match ready t.workers with
    | Some w ->
        let task = Queue.peek t.queue in
        if send w task then begin
          ignore (Queue.pop t.queue);
          begin_attempt w task
        end
        else retire w;
        dispatch t
    | None when List.length t.workers < t.jobs ->
        let task = Queue.pop t.queue in
        let w = fork_worker t task in
        ignore (send w task);
        begin_attempt w task;
        dispatch t
    | None -> ()

let spawn t tag ~key ?timeout request =
  let limit = match timeout with Some _ -> timeout | None -> t.config.timeout in
  Queue.push { tag; name = key; request; limit; failures = [] } t.queue;
  dispatch t

(* When [tick] next has work for attempt [a]: its watchdog SIGTERM, or
   the SIGKILL escalation. *)
let attempt_deadline t a =
  match (a.term_at, a.task.limit) with
  | None, Some limit -> a.start +. limit
  | Some at, _ when not a.killed -> at +. t.config.kill_grace
  | _ -> infinity

let rec earliest t acc = function
  | [] -> acc
  | { state = Busy a; _ } :: rest -> earliest t (Float.min acc (attempt_deadline t a)) rest
  | _ :: rest -> earliest t acc rest

let next_deadline t =
  let retry = match t.waiting with (due, _) :: _ -> due | [] -> infinity in
  let due = earliest t retry t.workers in
  if due = infinity then None else Some due

let send_kill w a signal name =
  (try Unix.kill w.pid signal with Unix.Unix_error _ -> ());
  if Obs.Trace.on () then
    Obs.Trace.emit
      (Obs.Trace.Child_kill
         {
           key = a.task.name;
           pid = w.pid;
           signal = name;
           elapsed = Unix.gettimeofday () -. a.start;
         })

let rec watch t now = function
  | [] -> ()
  | w :: rest ->
      (match w.state with
      | Busy a -> (
          (match a.task.limit with
          | Some limit when a.term_at = None && now -. a.start > limit ->
              a.timed_out <- true;
              a.term_at <- Some now;
              send_kill w a Sys.sigterm "sigterm"
          | _ -> ());
          match a.term_at with
          | Some at when (not a.killed) && now -. at > t.config.kill_grace ->
              a.killed <- true;
              send_kill w a Sys.sigkill "sigkill"
          | _ -> ())
      | Replied | Ready | Retiring -> ());
      watch t now rest

let rec respawn t now =
  match t.waiting with
  | (due, task) :: rest when due <= now && room t ->
      t.waiting <- rest;
      Queue.push task t.queue;
      respawn t now
  | _ -> ()

let tick t =
  let now = Unix.gettimeofday () in
  watch t now t.workers;
  respawn t now;
  dispatch t

let rec running_task tag = function
  | [] -> None
  | ({ state = Busy a; _ } as w) :: _ when a.task.tag == tag && not a.dropped -> Some (w, a)
  | _ :: rest -> running_task tag rest

let kill t tag =
  match running_task tag t.workers with
  | None -> false
  | Some (w, a) ->
      a.dropped <- true;
      a.killed <- true;
      send_kill w a Sys.sigkill "sigkill";
      true

let abandon t =
  t.abandoning <- true;
  let dropped =
    List.map (fun (_, task) -> task.tag) t.waiting
    @ List.of_seq (Seq.map (fun task -> task.tag) (Queue.to_seq t.queue))
  in
  t.waiting <- [];
  Queue.clear t.queue;
  dropped

let terminate t =
  ignore (abandon t);
  let now = Unix.gettimeofday () in
  List.iter
    (fun w ->
      match w.state with
      | Busy a when a.term_at = None ->
          a.term_at <- Some now;
          send_kill w a Sys.sigterm "sigterm"
      | _ -> ())
    t.workers

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(* A worker that wrote garbage is never trusted again; a task it was
   running dies with it. *)
let garbage w msg =
  if w.bad = None then w.bad <- Some msg;
  match w.state with
  | Busy _ -> ( try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
  | Replied | Ready | Retiring -> retire w

(* Decode what [w] sent; [settled] is the reply of its attempt, if one
   landed. *)
let rec parse w settled =
  match Wire.decode w.dec with
  | Ok None -> settled
  | Error e ->
      garbage w (Wire.error_to_string e);
      settled
  | Ok (Some { Wire.tag; payload }) -> (
      match (w.state, tag) with
      | Busy a, 'V' ->
          a.events <- Some payload;
          parse w settled
      | Busy a, 'S' ->
          a.stats <- Some payload;
          parse w settled
      | Busy a, ('R' | 'E') ->
          Option.iter (Obs.Flight.relay ~w:w.slot) a.events;
          (* After 'E' the worker exits on its own.  One that was
             signalled dies even if its reply got out first. *)
          if tag = 'E' then w.state <- Retiring
          else if a.term_at <> None || a.killed then retire w
          else w.state <- Replied;
          let outcome = if tag = 'R' then Done payload else Failed payload in
          parse w (Some (a.task.tag, Finished (outcome, if tag = 'R' then a.stats else None)))
      | Replied, 'H' ->
          w.state <- Ready;
          parse w settled
      | _ ->
          garbage w (Printf.sprintf "unexpected %C frame" tag);
          settled)

let exited t w status =
  let tm = Unix.times () in
  let cpu_user = tm.Unix.tms_cutime -. t.prev_cutime in
  let cpu_sys = tm.Unix.tms_cstime -. t.prev_cstime in
  t.prev_cutime <- tm.Unix.tms_cutime;
  t.prev_cstime <- tm.Unix.tms_cstime;
  if Obs.Trace.on () then
    let status =
      match status with
      | Unix.WEXITED n -> "exit:" ^ string_of_int n
      | Unix.WSIGNALED s -> "signal:" ^ signal_name s
      | Unix.WSTOPPED s -> "stopped:" ^ signal_name s
    in
    Obs.Trace.emit (Obs.Trace.Child_exit { key = w.key; pid = w.pid; status; cpu_user; cpu_sys })

let close_pipes w =
  (try Unix.close w.req with Unix.Unix_error _ -> ());
  try Unix.close w.rep with Unix.Unix_error _ -> ()

(* What becomes of an attempt whose worker died before replying. *)
let died t w a status =
  if a.dropped || t.abandoning then
    (* The caller killed it, or is stopping: neither retried nor charged,
       so a resume (or the caller's requeue) reruns it. *)
    Abandoned
  else
    let failure =
      if a.timed_out then
        Unresponsive
          {
            elapsed = Unix.gettimeofday () -. a.start;
            limit = Option.value a.task.limit ~default:0.;
            forced = a.killed;
          }
      else
        match w.bad with
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
    let task = a.task in
    task.failures <- failure :: task.failures;
    let attempts = List.length task.failures in
    if attempts > t.config.retries then begin
      if Obs.Trace.on () then
        Obs.Trace.emit
          (Obs.Trace.Cell_quarantined
             { key = task.name; attempts; reason = failure_to_string failure });
      Finished
        (Quarantined { key = task.name; attempts; failures = List.rev task.failures }, None)
    end
    else begin
      let delay = Backoff.delay t.config.backoff ~key:task.name ~attempt:attempts in
      if Obs.Trace.on () then
        Obs.Trace.emit (Obs.Trace.Cell_retry { key = task.name; attempt = attempts; delay });
      let due = Unix.gettimeofday () +. delay in
      let rec insert = function
        | [] -> [ (due, task) ]
        | (d, _) :: _ as l when due < d -> (due, task) :: l
        | x :: rest -> x :: insert rest
      in
      t.waiting <- insert t.waiting;
      Retrying
    end

(* [w] closed its reply pipe: it exited. *)
let reap t w =
  close_pipes w;
  let _, status = waitpid_retry w.pid in
  remove_tree w.tmp;
  exited t w status;
  t.workers <- List.filter (fun w' -> w' != w) t.workers;
  match w.state with
  | Busy a -> Some (a.task.tag, died t w a status)
  | Replied | Ready | Retiring -> None

let rec find_worker fd = function
  | [] -> None
  | w :: _ when w.rep = fd -> Some w
  | _ :: rest -> find_worker fd rest

let read t fd =
  match find_worker fd t.workers with
  | None -> None
  | Some w ->
      let settled =
        match Unix.read fd t.chunk 0 (Bytes.length t.chunk) with
        | 0 -> reap t w
        | n ->
            Wire.feed w.dec t.chunk 0 n;
            parse w None
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
      in
      dispatch t;
      settled

(* Busy workers are killed; the others read EOF and exit 0. *)
let shutdown t =
  List.iter
    (fun w ->
      (match w.state with
      | Busy _ -> ( try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
      | Replied | Ready | Retiring -> ());
      close_pipes w)
    t.workers;
  List.iter
    (fun w ->
      let _, status = waitpid_retry w.pid in
      remove_tree w.tmp;
      exited t w status)
    t.workers;
  t.workers <- [];
  t.waiting <- [];
  Queue.clear t.queue

(* --------------------------- ordered delivery --------------------------- *)

let run ?(config = default_config) ?(should_stop = fun () -> false) ~jobs
    ~tasks ~key ?(inline = fun _ -> None) ~work
    ?(on_stats = fun ~task:_ payload -> ignore (Obs.Stats.absorb_string payload))
    ?(complete = fun _ _ -> ()) ~consume () =
  if jobs < 1 then invalid_arg "Supervisor.run: jobs must be >= 1";
  if tasks < 0 then invalid_arg "Supervisor.run: tasks must be >= 0";
  let t = create ~jobs ~work:(fun request -> work (int_of_string request)) config in
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
          (* Under interruption the workers die because we (or the
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
          | None -> spawn t idx ~key:(key idx) (string_of_int idx)
        done;
        let wait =
          match next_deadline t with
          | Some due -> Float.max 0. (Float.min 0.25 (due -. Unix.gettimeofday ()))
          | None -> 0.25
        in
        match fds t with
        | [] ->
            (* No worker: we are waiting out a retry backoff. *)
            if not (idle t) then Unix.sleepf wait
        | fds -> (
            match Unix.select fds [] [] wait with
            | ready, _, _ ->
                List.iter (fun fd -> Option.iter settle (read t fd)) ready
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      done)
