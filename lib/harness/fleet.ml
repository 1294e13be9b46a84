(* Client-side shard router: one campaign fanned across N serve.exe
   endpoints, multiplexed single-threaded over [Unix.select] (the same
   structure as the server's own main loop — no domains, no locks).

   The exactly-once story is inherited, not invented: job ids are
   content-derived ({!Client.job_id}), every server dedups on them, and
   this router dedups result deliveries on them too — so resubmitting a
   lost endpoint's unfinished jobs elsewhere can change which server
   answers, never how many answers land in [results].  Redundant
   deliveries are counted ([duplicates]), making the dedup observable
   rather than silent. *)

type verdict = [ `Full | `Degraded of string list ]

let verdict_to_string = function
  | `Full -> "FULL"
  | `Degraded reasons -> "DEGRADED (" ^ String.concat "; " reasons ^ ")"

type campaign = {
  results : string list;
  verdict : verdict;
  failovers : int;
  duplicates : int;
  resubmits : int;
  rejections : int;
  reconnects : int;
}

(* ------------------------------- state ------------------------------- *)

type ep = {
  espec : string;
  eidx : int;
  mutable conn : Client.Endpoint.t option;
  mutable failures : int;  (* consecutive connection failures *)
  mutable open_until : float;  (* circuit breaker: no reconnect before *)
  mutable last_state : string;  (* last traced state, to dedup events *)
  mutable ever_lost : bool;
  mutable draining : bool;
  mutable depth : int;  (* last probed queued count *)
  mutable inflight : int;  (* unresolved jobs submitted on this conn *)
  mutable probe_at : float;  (* next depth probe due *)
}

type jb = {
  id : string;
  kind : string;
  payload : string;
  home : int;  (* seeded-deterministic initial shard *)
  mutable target : int;  (* current endpoint assignment *)
  mutable result : string option;
  mutable submitted : bool;  (* in flight on [target]'s current conn *)
  mutable rejects : int;
  mutable due : float;  (* no (re)submit before this time *)
}

(* Seeded-deterministic sharding: FNV-fold the job id, finalize with the
   splitmix mixer.  Independent of endpoint health, arrival order, and
   process — the same (seed, job) lands on the same home shard in every
   run, which is what makes a campaign's failure handling replayable. *)
let shard ~seed ~n id =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    id;
  let m = Backoff.mix64 (Int64.add !h (Int64.of_int seed)) in
  Int64.to_int (Int64.unsigned_rem m (Int64.of_int n))

let home_shard ~shard_seed ~endpoints ~kind ~payload =
  if endpoints < 1 then invalid_arg "Fleet: endpoints must be >= 1";
  shard ~seed:shard_seed ~n:endpoints (Client.job_id ~kind ~payload)

(* load gap that triggers moving queued work to a shallower endpoint *)
let rebalance_threshold = 8

(* ------------------------------ campaign ----------------------------- *)

let run_campaign ?(backoff = Backoff.default) ?(window = 16) ?deadline
    ?(max_attempts = 10_000) ?(recv_timeout = 30.) ?(shard_seed = 0)
    ?(probe_interval = 0.25) ~endpoints specs =
  if endpoints = [] then invalid_arg "Fleet: at least one endpoint required";
  if window < 1 then invalid_arg "Fleet: window must be >= 1";
  if max_attempts < 1 then invalid_arg "Fleet: max_attempts must be >= 1";
  if probe_interval <= 0. then invalid_arg "Fleet: probe_interval must be positive";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if Hashtbl.mem seen s then
        invalid_arg ("Fleet: duplicate endpoint " ^ s);
      Hashtbl.replace seen s ())
    endpoints;
  Backoff.validate backoff;
  let deadline_ms =
    match deadline with
    | None -> ""
    | Some s ->
        if s <= 0. then invalid_arg "Fleet: deadline must be positive";
        string_of_int (int_of_float (s *. 1000.))
  in
  let n = List.length endpoints in
  let eps =
    Array.of_list
      (List.mapi
         (fun i spec ->
           {
             espec = spec;
             eidx = i;
             conn = None;
             failures = 0;
             open_until = 0.;
             last_state = "";
             ever_lost = false;
             draining = false;
             depth = 0;
             inflight = 0;
             probe_at = 0.;
           })
         endpoints)
  in
  (* unique jobs in first-appearance order; duplicate specs share an id *)
  let tbl : (string, jb) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (kind, payload) ->
      let id = Client.job_id ~kind ~payload in
      if not (Hashtbl.mem tbl id) then begin
        let home = shard ~seed:shard_seed ~n id in
        Hashtbl.replace tbl id
          {
            id;
            kind;
            payload;
            home;
            target = home;
            result = None;
            submitted = false;
            rejects = 0;
            due = 0.;
          };
        order := id :: !order
      end)
    specs;
  let order = List.rev !order in
  let jobs = List.map (fun id -> Hashtbl.find tbl id) order in
  let unresolved = ref (List.length jobs) in
  let total_submits = ref 0 in
  let resubmits = ref 0 in
  let rejections = ref 0 in
  let reconnects = ref 0 in
  let failovers = ref 0 in
  let duplicates = ref 0 in
  let rebalanced = ref 0 in
  let dead_rounds = ref 0 in
  let reasons = ref [] in  (* degraded reasons, newest first *)
  let add_reason r = if not (List.mem r !reasons) then reasons := r :: !reasons in
  let metric name = if Obs.Metrics.on () then Obs.Metrics.incr name in
  let trace_state e state =
    if e.last_state <> state then begin
      e.last_state <- state;
      if Obs.Trace.on () then
        Obs.Trace.emit (Obs.Trace.Endpoint_state { endpoint = e.espec; state })
    end
  in
  if Obs.Trace.on () then
    Obs.Trace.emit (Obs.Trace.Fleet_start { endpoints = n; jobs = window; shard_seed });
  metric "fleet.campaigns";
  let live e = e.conn <> None && not e.draining in
  let unsubmit_jobs_of e =
    List.iter
      (fun j ->
        if j.target = e.eidx && j.result = None && j.submitted then
          j.submitted <- false)
      jobs;
    e.inflight <- 0
  in
  let breaker_trip e now reason =
    e.failures <- e.failures + 1;
    e.open_until <- now +. Backoff.delay backoff ~key:e.espec ~attempt:e.failures;
    if not e.ever_lost then begin
      e.ever_lost <- true;
      metric "fleet.endpoints_lost"
    end;
    add_reason (Printf.sprintf "endpoint %s unreachable (%s)" e.espec reason);
    trace_state e "unreachable"
  in
  let lose_ep e now reason =
    (match e.conn with
    | Some c ->
        Client.Endpoint.close c;
        e.conn <- None;
        incr reconnects
    | None -> ());
    breaker_trip e now reason;
    unsubmit_jobs_of e
  in
  let mark_draining e =
    if not e.draining then begin
      e.draining <- true;
      add_reason (Printf.sprintf "endpoint %s draining" e.espec);
      trace_state e "draining";
      (* its queued jobs will never run there; resubmit them elsewhere.
         In-flight ones may still answer on the open connection — the
         dedup layer absorbs the extra delivery. *)
      unsubmit_jobs_of e
    end
  in
  let try_connect e now =
    match Client.Endpoint.connect ~recv_timeout e.espec with
    | c ->
        e.conn <- Some c;
        e.failures <- 0;
        e.probe_at <- now;  (* probe a fresh connection right away *)
        dead_rounds := 0;
        trace_state e "up"
    | exception Client.Conn_lost reason -> breaker_trip e now reason
  in
  (* pick the first live endpoint scanning from the job's home shard —
     deterministic in (job, set of live endpoints) *)
  let pick_target j =
    let rec go k =
      if k = n then None
      else
        let e = eps.((j.home + k) mod n) in
        if live e then Some e.eidx else go (k + 1)
    in
    go 0
  in
  let submit e j =
    incr total_submits;
    if !total_submits > List.length jobs then begin
      incr resubmits;
      metric "fleet.resubmits"
    end;
    j.submitted <- true;
    e.inflight <- e.inflight + 1;
    match e.conn with
    | Some c ->
        Client.Endpoint.send c ~tag:'S'
          (j.kind ^ "\t" ^ deadline_ms ^ "\n" ^ j.payload)
    | None -> assert false
  in
  let handle_frame e now { Wire.tag; payload } =
    match tag with
    | 'A' -> ()
    | 'R' -> (
        let id, result = Client.split_tab payload in
        match Hashtbl.find_opt tbl id with
        | Some j when j.result = None ->
            j.result <- Some result;
            decr unresolved;
            if j.submitted then begin
              j.submitted <- false;
              let t = eps.(j.target) in
              t.inflight <- max 0 (t.inflight - 1)
            end
        | Some _ ->
            (* a second server also answered (failover raced a live
               completion): delivered once, counted here *)
            incr duplicates;
            metric "fleet.duplicates"
        | None -> ())
    | 'X' -> (
        let id, reason = Client.split_tab payload in
        incr rejections;
        metric "fleet.rejections";
        match Hashtbl.find_opt tbl id with
        | Some j when j.result = None ->
            if j.submitted then begin
              j.submitted <- false;
              let t = eps.(j.target) in
              t.inflight <- max 0 (t.inflight - 1)
            end;
            j.rejects <- j.rejects + 1;
            if j.rejects > max_attempts then
              failwith
                (Printf.sprintf "Fleet: job %s rejected %d times, giving up" id
                   j.rejects);
            if reason = "draining" then begin
              mark_draining e;
              j.due <- now  (* move elsewhere immediately *)
            end
            else
              j.due <- now +. Backoff.delay backoff ~key:id ~attempt:j.rejects
        | _ -> ())
    | 'D' -> (
        (* queued \t running \t completed \t draining *)
        match String.split_on_char '\t' payload with
        | queued :: _running :: _completed :: draining :: _ ->
            (match int_of_string_opt queued with
            | Some q -> e.depth <- q
            | None -> ());
            if draining = "1" then mark_draining e
        | _ -> ())
    | 'E' -> raise (Client.Conn_lost ("server error: " ^ payload))
    | _ -> ()
  in
  let rebalance () =
    let lives = Array.to_list eps |> List.filter live in
    match lives with
    | [] | [ _ ] -> ()
    | lives ->
        let load e = e.depth + e.inflight in
        let deep =
          List.fold_left (fun a e -> if load e > load a then e else a)
            (List.hd lives) lives
        in
        let shallow =
          List.fold_left (fun a e -> if load e < load a then e else a)
            (List.hd lives) lives
        in
        if deep.eidx <> shallow.eidx
           && load deep - load shallow >= rebalance_threshold
        then begin
          let quota = ref ((load deep - load shallow) / 2) in
          let moved = ref 0 in
          List.iter
            (fun j ->
              if !quota > 0 && j.result = None && (not j.submitted)
                 && j.target = deep.eidx
              then begin
                j.target <- shallow.eidx;
                decr quota;
                incr moved
              end)
            jobs;
          if !moved > 0 then begin
            rebalanced := !rebalanced + !moved;
            metric "fleet.rebalanced";
            if Obs.Trace.on () then
              Obs.Trace.emit
                (Obs.Trace.Rebalance
                   { moved = !moved; src = deep.espec; dst = shallow.espec })
          end
        end
  in
  Client.with_sigpipe_ignored @@ fun () ->
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e ->
          match e.conn with
          | Some c ->
              Client.Endpoint.close c;
              e.conn <- None
          | None -> ())
        eps)
  @@ fun () ->
  while !unresolved > 0 do
    let now = Unix.gettimeofday () in
    (* reconnect endpoints whose breaker window has passed *)
    Array.iter
      (fun e ->
        if e.conn = None && (not e.draining) && now >= e.open_until then
          try_connect e now)
      eps;
    if Array.for_all (fun e -> not (live e)) eps then begin
      (* whole fleet dark: bound the wait like the single-server client
         bounds its reconnect loop *)
      incr dead_rounds;
      if !dead_rounds > max_attempts then
        failwith
          (Printf.sprintf
             "Fleet: giving up: all %d endpoints unreachable after %d rounds"
             n !dead_rounds);
      let earliest =
        Array.fold_left
          (fun acc e ->
            if e.draining then acc else Float.min acc e.open_until)
          infinity eps
      in
      if earliest = infinity then
        failwith "Fleet: every endpoint is draining; no server can run the work";
      if earliest > now then Unix.sleepf (Float.min 1. (earliest -. now))
    end
    else begin
      (* assign + submit due jobs, respecting per-endpoint windows *)
      List.iter
        (fun j ->
          if j.result = None && (not j.submitted) && j.due <= now then begin
            let target_live = live eps.(j.target) in
            (match (target_live, pick_target j) with
            | false, Some t when t <> j.target ->
                incr failovers;
                metric "fleet.failovers";
                if Obs.Trace.on () then
                  Obs.Trace.emit
                    (Obs.Trace.Failover
                       {
                         id = j.id;
                         src = eps.(j.target).espec;
                         dst = eps.(t).espec;
                       });
                j.target <- t
            | _ -> ());
            let e = eps.(j.target) in
            if live e && e.inflight < window then
              try submit e j
              with Client.Conn_lost reason -> lose_ep e now reason
          end)
        jobs;
      (* depth probes drive the rebalancer *)
      Array.iter
        (fun e ->
          if live e && now >= e.probe_at then begin
            e.probe_at <- now +. probe_interval;
            match e.conn with
            | Some c -> (
                try Client.Endpoint.send c ~tag:'Q' ""
                with Client.Conn_lost reason -> lose_ep e now reason)
            | None -> ()
          end)
        eps;
      rebalance ();
      (* wait for replies (or the next due/breaker/probe deadline) *)
      let rfds =
        Array.to_list eps
        |> List.filter_map (fun e -> Option.map Client.Endpoint.fd e.conn)
      in
      let timeout =
        let t = ref 0.25 in
        let consider due =
          if due > now then t := Float.min !t (due -. now)
          else if due > 0. then t := 0.
        in
        List.iter (fun j -> if j.result = None && not j.submitted then consider j.due) jobs;
        Array.iter
          (fun e ->
            if e.conn = None && not e.draining then consider e.open_until;
            if live e then consider e.probe_at)
          eps;
        Float.max 0. !t
      in
      match Unix.select rfds [] [] timeout with
      | ready, _, _ ->
          List.iter
            (fun fd ->
              match
                Array.fold_left
                  (fun acc e ->
                    match e.conn with
                    | Some c when Client.Endpoint.fd c = fd -> Some e
                    | _ -> acc)
                  None eps
              with
              | Some e -> (
                  match
                    Option.fold ~none:[] ~some:Client.Endpoint.pump e.conn
                  with
                  | frames -> (
                      dead_rounds := 0;
                      try List.iter (handle_frame e now) frames
                      with Client.Conn_lost reason -> lose_ep e now reason)
                  | exception Client.Conn_lost reason -> lose_ep e now reason)
              | None -> ())
            ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  let results =
    List.map
      (fun (kind, payload) ->
        match (Hashtbl.find tbl (Client.job_id ~kind ~payload)).result with
        | Some r -> r
        | None -> assert false)
      specs
  in
  if !failovers > 0 then
    add_reason (Printf.sprintf "%d job(s) failed over" !failovers);
  let verdict =
    match !reasons with [] -> `Full | rs -> `Degraded (List.rev rs)
  in
  if Obs.Trace.on () then
    Obs.Trace.emit
      (Obs.Trace.Fleet_verdict
         {
           verdict = verdict_to_string verdict;
           results = List.length results;
           failovers = !failovers;
           duplicates = !duplicates;
         });
  {
    results;
    verdict;
    failovers = !failovers;
    duplicates = !duplicates;
    resubmits = !resubmits;
    rejections = !rejections;
    reconnects = !reconnects;
  }
