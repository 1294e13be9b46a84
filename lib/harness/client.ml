let job_id ~kind ~payload = Digest.to_hex (Digest.string (kind ^ "\x00" ^ payload))

type campaign = {
  results : string list;
  resubmits : int;
  rejections : int;
  reconnects : int;
}

(* ------------------------------ plumbing ------------------------------ *)

let sockaddr_of_spec spec =
  match String.index_opt spec ':' with
  | Some 3 when String.sub spec 0 3 = "tcp" -> (
      let port = String.sub spec 4 (String.length spec - 4) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 ->
          Unix.ADDR_INET (Unix.inet_addr_loopback, p)
      | _ -> invalid_arg ("bad tcp socket spec " ^ spec))
  | _ -> Unix.ADDR_UNIX spec

exception Conn_lost of string

let connect ~recv_timeout spec =
  let addr = sockaddr_of_spec spec in
  let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd addr;
     (* silence bound: a wedged server becomes Conn_lost, not a hang *)
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO recv_timeout
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let with_sigpipe_ignored f =
  let prev =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter (fun b -> Sys.set_signal Sys.sigpipe b) prev)
    f

let send_frame fd ~tag payload =
  try Wire.write_all fd (Wire.encode ~tag payload)
  with Unix.Unix_error (e, _, _) -> raise (Conn_lost (Unix.error_message e))

(* Read until the decoder yields one frame.  Every way the read can go
   wrong — EOF (dropped or truncated connection), reset, timeout, a
   frame that does not decode — is one exception, [Conn_lost]: the
   caller's answer to all of them is the same (reconnect, resubmit). *)
let read_frame fd dec chunk =
  let rec go () =
    match Wire.decode dec with
    | Ok (Some frame) -> frame
    | Error e -> raise (Conn_lost (Wire.error_to_string e))
    | Ok None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> raise (Conn_lost "eof")
        | n ->
            Wire.feed dec chunk 0 n;
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            raise (Conn_lost "receive timeout")
        | exception Unix.Unix_error (e, _, _) ->
            raise (Conn_lost (Unix.error_message e)))
  in
  go ()

let split_tab s =
  match String.index_opt s '\t' with
  | None -> (s, "")
  | Some t -> (String.sub s 0 t, String.sub s (t + 1) (String.length s - t - 1))

(* every server→client tag: ack, result, reject, health and error *)
let reply_tags = "ARXHE"

(* ------------------------------ campaign ------------------------------ *)

type jstatus = {
  mutable result : string option;
  mutable attempts : int;  (* rejected submits so far *)
  mutable due : float;  (* no resubmit before this time *)
  mutable submitted : bool;  (* on the current connection *)
}

(* The server answers a kind it cannot split back out of the submit
   header [kind TAB deadline_ms LF], or a 0 ms deadline, with 'E' on
   every retry, so both are refused before connecting. *)
let check_kind (kind, _) =
  if kind = "" || String.contains kind '\t' || String.contains kind '\n' then
    invalid_arg (Printf.sprintf "Client: bad job kind %S (empty, TAB or LF)" kind)

(* Rounded, not truncated: a deadline of whole milliseconds (as
   submit.exe's --deadline-ms) goes out exact. *)
let deadline_field = function
  | None -> ""
  | Some s ->
      let ms = Float.round (s *. 1000.) in
      if not (ms >= 1.) then
        invalid_arg (Printf.sprintf "Client: deadline %gs is under 1 ms" s);
      Printf.sprintf "%.0f" ms

(* The unique jobs in first-appearance order, and a status per id:
   duplicate specs share an id. *)
let unique_jobs specs =
  let tbl = Hashtbl.create 64 in
  let order =
    List.filter_map
      (fun (kind, payload) ->
        let id = job_id ~kind ~payload in
        if Hashtbl.mem tbl id then None
        else begin
          Hashtbl.replace tbl id { result = None; attempts = 0; due = 0.; submitted = false };
          Some (id, kind, payload)
        end)
      specs
  in
  (tbl, order)

let run_campaign ?(backoff = Backoff.default) ?(window = 16) ?deadline
    ?(max_attempts = 10_000) ?(recv_timeout = 30.) ~socket specs =
  if window < 1 then invalid_arg "Client: window must be >= 1";
  if max_attempts < 1 then invalid_arg "Client: max_attempts must be >= 1";
  Backoff.validate backoff;
  List.iter check_kind specs;
  let deadline_ms = deadline_field deadline in
  let tbl, order = unique_jobs specs in
  let resubmits = ref 0 and rejections = ref 0 and reconnects = ref 0 in
  let total_submits = ref 0 in
  let conn_failures = ref 0 in
  let chunk = Bytes.create 4096 in
  let conn : (Unix.file_descr * Wire.decoder) option ref = ref None in
  let drop_conn () =
    match !conn with
    | Some (fd, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        conn := None;
        Hashtbl.iter (fun _ j -> j.submitted <- false) tbl
    | None -> ()
  in
  let ensure_conn () =
    match !conn with
    | Some c -> c
    | None -> (
        match connect ~recv_timeout socket with
        | fd ->
            let c = (fd, Wire.decoder ~tags:reply_tags ()) in
            conn := Some c;
            c
        | exception (Unix.Unix_error (e, _, _)) ->
            raise (Conn_lost (Unix.error_message e)))
  in
  let unresolved () =
    List.filter (fun (id, _, _) -> (Hashtbl.find tbl id).result = None) order
  in
  let inflight () =
    Hashtbl.fold
      (fun _ j n -> if j.result = None && j.submitted then n + 1 else n)
      tbl 0
  in
  let submit fd (id, kind, payload) =
    let j = Hashtbl.find tbl id in
    incr total_submits;
    if !total_submits > List.length order then incr resubmits;
    j.submitted <- true;
    send_frame fd ~tag:'S' (kind ^ "\t" ^ deadline_ms ^ "\n" ^ payload)
  in
  let on_conn_lost reason =
    drop_conn ();
    incr reconnects;
    incr conn_failures;
    if !conn_failures > max_attempts then
      failwith
        (Printf.sprintf "Client: giving up on %s after %d connection failures (%s)"
           socket !conn_failures reason);
    Unix.sleepf (Backoff.delay backoff ~key:"#conn" ~attempt:!conn_failures)
  in
  with_sigpipe_ignored @@ fun () ->
  Fun.protect ~finally:drop_conn @@ fun () ->
  let rec loop () =
    match unresolved () with
    | [] -> ()
    | todo -> (
        match
          let fd, dec = ensure_conn () in
          let now = Unix.gettimeofday () in
          (* fill the window with due, unsubmitted jobs *)
          let slots = ref (window - inflight ()) in
          List.iter
            (fun ((id, _, _) as spec) ->
              let j = Hashtbl.find tbl id in
              if !slots > 0 && (not j.submitted) && j.due <= now then begin
                decr slots;
                submit fd spec
              end)
            todo;
          if inflight () = 0 then begin
            (* everything unresolved is backing off: sleep to the
               earliest due time instead of spinning *)
            let earliest =
              List.fold_left
                (fun acc (id, _, _) ->
                  Float.min acc (Hashtbl.find tbl id).due)
                infinity todo
            in
            if earliest > now then Unix.sleepf (Float.min 1. (earliest -. now))
          end
          else begin
            let { Wire.tag; payload } = read_frame fd dec chunk in
            conn_failures := 0;
            match tag with
            | 'A' -> ()
            | 'R' ->
                let id, result = split_tab payload in
                (match Hashtbl.find_opt tbl id with
                | Some j -> j.result <- Some result
                | None -> ())
            | 'X' ->
                let id, _reason = split_tab payload in
                incr rejections;
                (match Hashtbl.find_opt tbl id with
                | Some j ->
                    j.submitted <- false;
                    j.attempts <- j.attempts + 1;
                    if j.attempts > max_attempts then
                      failwith
                        (Printf.sprintf
                           "Client: job %s rejected %d times, giving up" id
                           j.attempts);
                    j.due <-
                      Unix.gettimeofday ()
                      +. Backoff.delay backoff ~key:id ~attempt:j.attempts
                | None -> ())
            | 'E' ->
                (* the server refused a request it parsed: resubmitting
                   the same bytes can only be refused again *)
                failwith ("Client: server error: " ^ payload)
            | _ -> ()
          end
        with
        | () -> loop ()
        | exception Conn_lost reason ->
            on_conn_lost reason;
            loop ())
  in
  loop ();
  let result (kind, payload) = Option.get (Hashtbl.find tbl (job_id ~kind ~payload)).result in
  {
    results = List.map result specs;
    resubmits = !resubmits;
    rejections = !rejections;
    reconnects = !reconnects;
  }

(* ------------------------------- health ------------------------------- *)

(* Reachability failures (refused/missing socket, EOF, reset, timeout)
   are a typed [`Unreachable] — a condition callers are expected to
   branch on.  A server that answers with the wrong tag is still a
   [Failure]: that is protocol corruption, not a health state. *)
let health ?(recv_timeout = 30.) ~socket () =
  with_sigpipe_ignored @@ fun () ->
  match connect ~recv_timeout socket with
  | exception Unix.Unix_error (e, _, _) ->
      Error (`Unreachable (Unix.error_message e))
  | fd -> (
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      match
        send_frame fd ~tag:'P' "";
        read_frame fd (Wire.decoder ~tags:reply_tags ()) (Bytes.create 4096)
      with
      | { Wire.tag = 'H'; payload } -> Ok payload
      | { Wire.tag; payload } ->
          failwith (Printf.sprintf "Client: unexpected %C reply to 'P': %s" tag payload)
      | exception Conn_lost reason -> Error (`Unreachable reason))
