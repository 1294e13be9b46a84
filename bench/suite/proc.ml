(* Spawning the shipped binaries and probing them from outside: wall
   time, CPU from Unix.times of reaped children, and peak resident set
   (VmHWM) polled from /proc while they run.

   Every process started here is waited for before the function that
   started it returns, on success and on exception alike. *)

let bin_dir =
  (* suite.exe lives in _build/default/bench/suite, the binaries in
     _build/default/bin *)
  Filename.concat (Filename.dirname Sys.executable_name) "../../bin"

let exe name = Filename.concat bin_dir (name ^ ".exe")
let work_dir = ".bench_suite"

let ensure_work_dir () =
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755

(* Scratch files of this process, removed when it exits. *)
let temporary = ref []

let () =
  at_exit (fun () -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) !temporary)

let work_file name =
  let path = Filename.concat work_dir (Printf.sprintf "%s.%d" name (Unix.getpid ())) in
  if not (List.mem path !temporary) then temporary := path :: !temporary;
  path

let null = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

type sink = Null | File of string

let open_sink = function
  | Null -> (Lazy.force null, false)
  | File path ->
      (Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644, true)

let spawn ?(stdout = Null) ?(stderr = Null) name args =
  let prog = exe name in
  let out, close_out = open_sink stdout in
  let err, close_err = open_sink stderr in
  Fun.protect
    ~finally:(fun () ->
      if close_out then Unix.close out;
      if close_err then Unix.close err)
    (fun () ->
      Unix.create_process prog (Array.of_list (prog :: args)) (Lazy.force null) out err)

(* VmHWM of a live process, in kB; 0 once it has exited. *)
let hwm_kb pid =
  match In_channel.with_open_bin (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | exception Sys_error _ -> 0
  | status ->
      let rec scan = function
        | [] -> 0
        | line :: rest -> (
            match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
            | kb -> kb
            | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> scan rest)
      in
      scan (String.split_on_char '\n' status)

let exited_ok = function Unix.WEXITED 0 -> true | _ -> false

(* Wait for [pids], polling the VmHWM of [pids] and [watch] every 2 ms.
   Returns each exit status (in [pids] order) and the largest VmHWM
   seen, in kB. *)
let wait_polling ?(watch = []) pids =
  let status = Hashtbl.create 4 in
  let peak = ref 0 in
  let pending () = List.filter (fun p -> not (Hashtbl.mem status p)) pids in
  let rec loop () =
    match pending () with
    | [] -> ()
    | live ->
        List.iter (fun p -> peak := max !peak (hwm_kb p)) (live @ watch);
        List.iter
          (fun p ->
            match Unix.waitpid [ Unix.WNOHANG ] p with
            | 0, _ -> ()
            | _, st -> Hashtbl.replace status p st)
          live;
        if pending () <> [] then Unix.sleepf 0.002;
        loop ()
  in
  loop ();
  (List.map (Hashtbl.find status) pids, !peak)

(* User and system CPU of all reaped children so far. *)
let children_cpu () =
  let t = Unix.times () in
  (t.Unix.tms_cutime, t.Unix.tms_cstime)

let self_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* [f pid], killing and reaping [pid] if [f] raises. *)
let guarded pid f =
  match f pid with
  | v -> v
  | exception e ->
      kill_and_reap pid;
      raise e

(* Spawn-to-exit wall time of one [name args] run with output
   discarded; fails unless it exits 0. *)
let time_exit name args =
  let t0 = Spans.now_ns () in
  let pid = spawn name args in
  let _, st = guarded pid (Unix.waitpid []) in
  if not (exited_ok st) then failwith (name ^ " " ^ String.concat " " args ^ ": failed");
  Spans.seconds_of_ns (Spans.now_ns () - t0)

(* -------------------------------- serve -------------------------------- *)

(* A relative path keeps the socket name under the 108-byte limit of
   Unix-domain addresses however deep the checkout is. *)
let socket () = work_file "serve.sock"

(* SIGTERM drains the server and its workers; SIGKILL after 20 s if it
   does not.  True when it exited 0 (false if it was already reaped). *)
let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Spans.now_ns () + 20_000_000_000 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false
    | 0, _ when Spans.now_ns () > deadline ->
        kill_and_reap pid;
        false
    | 0, _ ->
        Unix.sleepf 0.002;
        wait ()
    | _, st -> exited_ok st
  in
  wait ()

let guarded_server pid f =
  match f pid with
  | v -> v
  | exception e ->
      ignore (stop_server pid);
      raise e

(* Start [serve.exe --jobs 2 --isolate proc] and return once it answers
   a health probe; returns the pid and the seconds from spawn to ready.
   The probe is the one [submit.exe --health] sends, made in-process
   every 0.2 ms: spawning submit.exe per probe would quantize the
   measurement to its ~2.5 ms start-up. *)
let start_server ~socket =
  let t0 = Spans.now_ns () in
  let pid =
    spawn ~stderr:(File (work_file "serve.err")) "serve"
      [ "--socket"; socket; "--jobs"; "2"; "--isolate"; "proc" ]
  in
  guarded_server pid @@ fun pid ->
  let deadline = t0 + 30_000_000_000 in
  let rec wait_ready () =
    match Harness.Client.health ~recv_timeout:5. ~socket () with
    | Ok _ -> ()
    | Error (`Unreachable _) ->
        if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then failwith "serve.exe exited early"
        else if Spans.now_ns () > deadline then failwith "serve.exe not ready after 30 s"
        else begin
          Unix.sleepf 0.0002;
          wait_ready ()
        end
  in
  wait_ready ();
  (pid, Spans.seconds_of_ns (Spans.now_ns () - t0))
