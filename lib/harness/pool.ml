let default_cap = 8

let default_jobs ?(cap = default_cap) () =
  max 1 (min cap (Domain.recommended_domain_count ()))

(* The sequential path is exactly the pre-pool control flow: work and
   consume alternate on the calling domain, and an exception out of
   [work] propagates immediately — no spawn, no mutex, no buffering. *)
let sequential ~tasks ~work ~consume =
  for i = 0 to tasks - 1 do
    consume i (work i)
  done

let parallel ~jobs ~tasks ~work ~consume =
  let workers = min jobs tasks in
  let mutex = Mutex.create () in
  let progress = Condition.create () in
  (* All shared state below is guarded by [mutex]. *)
  let next = ref 0 in
  let results = Array.make tasks None in
  let crash = ref None in
  let live = ref workers in
  let claim () =
    Mutex.protect mutex (fun () ->
        if !crash <> None || !next >= tasks then None
        else begin
          let i = !next in
          incr next;
          Some i
        end)
  in
  let finished i v =
    Mutex.protect mutex (fun () ->
        results.(i) <- Some v;
        Condition.broadcast progress)
  in
  let abort exn bt =
    Mutex.protect mutex (fun () ->
        if !crash = None then crash := Some (exn, bt);
        Condition.broadcast progress)
  in
  let worker index () =
    (* [live] drops on every exit path, or the consumer waits forever. *)
    Fun.protect ~finally:(fun () ->
        Mutex.protect mutex (fun () ->
            decr live;
            Condition.broadcast progress))
    @@ fun () ->
    if Obs.Trace.on () then Obs.Trace.emit (Obs.Trace.Worker_start { index });
    let claimed = ref 0 in
    let rec loop () =
      match claim () with
      | None -> ()
      | Some i -> (
          incr claimed;
          match work i with
          | v ->
              finished i v;
              loop ()
          | exception exn ->
              (* Fatal for the whole pool: publish the first crash so no
                 further cell is claimed; in-flight cells on other
                 workers still drain. *)
              abort exn (Printexc.get_raw_backtrace ()))
    in
    loop ();
    if Obs.Trace.on () then Obs.Trace.emit (Obs.Trace.Worker_stop { index; tasks = !claimed })
  in
  let domains = List.init workers (fun i -> Domain.spawn (worker i)) in
  (* The calling domain is the consumer: results are handed to [consume]
     strictly in index order, as soon as they become contiguous.  After a
     crash the contiguous prefix still flows; the first gap stops it. *)
  let consumed = ref 0 in
  let drain () =
    let next_action () =
      Mutex.protect mutex (fun () ->
          let rec wait () =
            if !consumed >= tasks then `Done
            else
              match results.(!consumed) with
              | Some v ->
                  results.(!consumed) <- None;
                  `Consume v
              | None ->
                  if !live = 0 then `Stopped
                  else begin
                    Condition.wait progress mutex;
                    wait ()
                  end
          in
          wait ())
    in
    let rec go () =
      match next_action () with
      | `Consume v ->
          consume !consumed v;
          incr consumed;
          go ()
      | `Done | `Stopped -> ()
    in
    go ()
  in
  let consumer_crash =
    match drain () with
    | () -> None
    | exception exn ->
        let bt = Printexc.get_raw_backtrace () in
        (* Stop the workers from claiming more cells, then re-raise the
           consumer's own failure below (it outranks any later worker
           crash: it happened first from the caller's point of view). *)
        abort exn bt;
        Some (exn, bt)
  in
  (* Join every domain before re-raising anything: a worker that died
     outside [work] must not leave its siblings running cells. *)
  let join_crash = ref None in
  List.iter
    (fun d ->
      try Domain.join d
      with exn ->
        let bt = Printexc.get_raw_backtrace () in
        if Option.is_none !join_crash then join_crash := Some (exn, bt))
    domains;
  match List.find_map Fun.id [ consumer_crash; !crash; !join_crash ] with
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ()

let run ~jobs ~tasks ~work ~consume =
  if tasks < 0 then invalid_arg "Pool.run: negative task count";
  if tasks = 0 then ()
  else if jobs <= 1 || tasks = 1 then sequential ~tasks ~work ~consume
  else parallel ~jobs ~tasks ~work ~consume
