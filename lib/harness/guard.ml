type limits = {
  max_color_calls : int option;
  max_work : int option;
  deadline : float option;
}

let no_limits = { max_color_calls = None; max_work = None; deadline = None }

let default_limits =
  { max_color_calls = None; max_work = Some 50_000_000; deadline = None }

type t = {
  limits : limits;
  started : float;
  mutable color_calls : int;
  mutable work : int;
  mutable since_poll : int;  (* ticks since the last deadline poll *)
  mutable fault : Misbehavior.t option;
}

exception Misbehaved of Misbehavior.t

let () =
  (* The printer keeps executor-recorded messages readable.  An executor
     stores a contained exception's text next to its own backtrace, so a
     raise prints as the algorithm's own exception, with no second
     "raised:" tag or backtrace note. *)
  Printexc.register_printer (function
    | Misbehaved (Misbehavior.Raised { message; _ }) -> Some message
    | Misbehaved m -> Some (Misbehavior.to_string m)
    | _ -> None)

let create ?(limits = default_limits) () =
  (* Backtraces feed Misbehavior.Raised and Run_stats.Algorithm_failure.
     Flipping the recorder is a global runtime effect, so it happens here
     — only in programs that actually run guarded games — not at library
     initialization, where merely linking the harness would pay it. *)
  Printexc.record_backtrace true;
  {
    limits;
    started = Unix.gettimeofday ();
    color_calls = 0;
    work = 0;
    since_poll = 0;
    fault = None;
  }

let fault t = t.fault
let color_calls t = t.color_calls
let work t = t.work

let is_fatal = function
  | Stack_overflow | Out_of_memory | Sys.Break -> true
  | _ -> false

(* Only the first certificate is recorded — and only that first one is
   traced, so a poisoned guard failing fast does not spam the trace. *)
let record_fault t m =
  if t.fault = None then begin
    t.fault <- Some m;
    if Obs.Trace.on () then
      Obs.Trace.emit
        (Obs.Trace.Misbehavior
           { label = Misbehavior.label m; detail = Misbehavior.to_string m })
  end

let fail t m =
  record_fault t m;
  raise (Misbehaved m)

let check_deadline t =
  match t.limits.deadline with
  | None -> ()
  | Some deadline ->
      let elapsed = Unix.gettimeofday () -. t.started in
      if elapsed > deadline then
        fail t (Misbehavior.Deadline_exceeded { elapsed; deadline })

(* The ambient guard: the innermost guarded call in progress. *)
let current : t option ref = ref None

let tick ?(cost = 1) () =
  match !current with
  | None -> ()
  | Some t ->
      t.work <- t.work + cost;
      (match t.limits.max_work with
      | Some budget when t.work > budget ->
          fail t (Misbehavior.Budget_exhausted { used = t.work; budget })
      | _ -> ());
      (* Deadline polls are amortized per tick, not per work unit: a
         cumulative-work test would skip multiples of 256 whenever a
         tick's cost exceeds 1, making poll latency depend on cost
         granularity.  The budget alone is deterministic. *)
      t.since_poll <- t.since_poll + 1;
      if t.since_poll >= 256 then begin
        t.since_poll <- 0;
        check_deadline t
      end

let with_current t f =
  let saved = !current in
  current := Some t;
  Fun.protect ~finally:(fun () -> current := saved) f

let raised = function
  | Models.Run_stats.Dishonest_transcript message ->
      (* Typed audit failures keep their sharper certificate instead of
         degrading to a generic Raised — classification is by exception
         constructor, never by message text. *)
      Misbehavior.Dishonest_transcript { message }
  | exn ->
      let backtrace = Printexc.get_backtrace () in
      Misbehavior.Raised { message = Printexc.to_string exn; backtrace }

let guarded_call t inst view =
  (match t.fault with Some m -> raise (Misbehaved m) | None -> ());
  t.color_calls <- t.color_calls + 1;
  (match t.limits.max_color_calls with
  | Some budget when t.color_calls > budget ->
      fail t (Misbehavior.Budget_exhausted { used = t.color_calls; budget })
  | _ -> ());
  check_deadline t;
  with_current t (fun () ->
      match inst view with
      | color -> color
      | exception (Misbehaved _ as e) -> raise e
      | exception e when is_fatal e -> raise e
      | exception exn -> fail t (raised exn))

let algorithm t algo =
  {
    algo with
    Models.Algorithm.instantiate =
      (fun ~n ~palette ~oracle ->
        match
          with_current t (fun () ->
              algo.Models.Algorithm.instantiate ~n ~palette ~oracle)
        with
        | inst -> fun view -> guarded_call t inst view
        | exception (Misbehaved m) -> fun _ -> raise (Misbehaved m)
        | exception e when is_fatal e -> raise e
        | exception exn ->
            let m = raised exn in
            record_fault t m;
            fun _ -> raise (Misbehaved m));
  }

let capture _t f =
  match f () with
  | v -> Ok v
  | exception (Misbehaved m) -> Error m
  | exception e when is_fatal e -> raise e
  | exception exn -> Error (raised exn)
