(* The worker-process engine: Harness.Supervisor directly, and
   Harness.Sweep.run ~isolation:`Process through it, against the
   in-process sweep as the reference.

   Everything here forks, so every test runs on the main domain (alcotest
   executes cases sequentially in-process) and uses a fast supervisor
   config — millisecond backoff — to keep the suite quick. *)

module Sup = Harness.Supervisor
module Sweep = Harness.Sweep

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~needle s =
  let n = String.length needle in
  let rec at i = i + n <= String.length s && (String.sub s i n = needle || at (i + 1)) in
  at 0

let fast =
  {
    Sup.default_config with
    Sup.backoff = { Harness.Backoff.default with base = 0.001; max = 0.01 };
  }

let with_temp_file f =
  let path = Filename.temp_file "supervisor_test" ".tmp" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let render ?resume ?checkpoint ?(jobs = 1) ?isolation ?supervisor cells =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Sweep.run ?resume ?checkpoint ~jobs ?isolation ?supervisor ~ppf cells;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* A mixed cell list: plain results, a multi-line result, a raising
   cell.  Every thunk is deterministic, so the `Process output must be
   byte-identical to the `In_domain output — ERROR mapping included. *)
let mixed_cells () =
  [
    { Sweep.key = "plain"; run = (fun () -> "value=1") };
    {
      Sweep.key = "multiline";
      run = (fun () -> "line one\nline two\nline three");
    };
    { Sweep.key = "raiser"; run = (fun () -> failwith "cell exploded") };
    { Sweep.key = "empty"; run = (fun () -> "") };
    { Sweep.key = "last"; run = (fun () -> "value=5") };
  ]

let test_proc_matches_indomain () =
  let baseline = render ~isolation:`In_domain (mixed_cells ()) in
  check_bool "baseline mentions the contained raise" true
    (String.length baseline > 0);
  List.iter
    (fun jobs ->
      check_string
        (Printf.sprintf "proc --jobs %d output" jobs)
        baseline
        (render ~jobs ~isolation:`Process ~supervisor:fast (mixed_cells ())))
    [ 1; 2; 3 ]

let test_cross_mode_resume () =
  let full = mixed_cells () in
  let prefix = [ List.nth full 0; List.nth full 1 ] in
  let clean = render ~isolation:`In_domain full in
  (* Checkpoint written by one mode, resumed by the other — both
     directions, and a resumed run replays without re-forking. *)
  with_temp_file (fun ckpt ->
      ignore (render ~checkpoint:ckpt ~isolation:`In_domain prefix);
      check_string "in-domain checkpoint, proc resume" clean
        (render ~resume:true ~checkpoint:ckpt ~isolation:`Process
           ~supervisor:fast full));
  with_temp_file (fun ckpt ->
      ignore
        (render ~checkpoint:ckpt ~isolation:`Process ~supervisor:fast prefix);
      check_string "proc checkpoint, in-domain resume" clean
        (render ~resume:true ~checkpoint:ckpt ~isolation:`In_domain full);
      check_string "proc checkpoint, proc resume at jobs 2" clean
        (render ~resume:true ~checkpoint:ckpt ~jobs:2 ~isolation:`Process
           ~supervisor:fast full))

(* Two cells that block 1.5 s in a system call: [Unix.select] on
   nothing, and [Unix.read] on a pipe a forked child writes to after
   the wait.  In-process they return normally; a worker must not
   interrupt them (with a timer signal, say), so on workers they print
   the same bytes.  [Unix.sleepf] would not show it: it restarts after
   a signal. *)
let blocking_cells () =
  [
    {
      Sweep.key = "select";
      run =
        (fun () ->
          ignore (Unix.select [] [] [] 1.5);
          "select ok");
    };
    {
      Sweep.key = "read";
      run =
        (fun () ->
          let r, w = Unix.pipe () in
          match Unix.fork () with
          | 0 ->
              (* Nothing may escape the child: it runs the rest of its
                 parent's program otherwise. *)
              (try
                 Unix.close r;
                 Unix.sleepf 1.5;
                 ignore (Unix.write_substring w "x" 0 1)
               with _ -> ());
              Unix._exit 0
          | pid ->
              Unix.close w;
              Fun.protect
                ~finally:(fun () ->
                  Unix.close r;
                  ignore (Unix.waitpid [] pid))
                (fun () ->
                  let n = Unix.read r (Bytes.create 1) 0 1 in
                  Printf.sprintf "read ok (%d byte)" n));
    };
  ]

let test_blocking_cells () =
  let baseline = render (blocking_cells ()) in
  check_bool "in-process cells return" true
    (contains ~needle:"select ok" baseline && contains ~needle:"read ok" baseline);
  check_string "shipped config, jobs 2" baseline
    (render ~jobs:2 ~isolation:`Process ~supervisor:Sup.default_config
       (blocking_cells ()))

let test_self_kill_retried () =
  (* First attempt SIGKILLs its own worker process; the retry succeeds.
     The supervisor must deliver Done, and a sweep over the same cells
     must print exactly what an unkilled sweep prints. *)
  with_temp_file (fun marker ->
      (try Sys.remove marker with Sys_error _ -> ());
      let outcome = ref None in
      Sup.run ~config:fast ~jobs:1 ~tasks:1
        ~key:(fun _ -> "victim")
        ~work:(fun _ ->
          if not (Sys.file_exists marker) then begin
            Out_channel.with_open_bin marker (fun _ -> ());
            Unix.kill (Unix.getpid ()) Sys.sigkill
          end;
          "survived")
        ~consume:(fun _ o -> outcome := Some o)
        ();
      match !outcome with
      | Some (Sup.Done s) -> check_string "retried result" "survived" s
      | Some (Sup.Failed msg) -> Alcotest.failf "unexpected Failed: %s" msg
      | Some (Sup.Quarantined q) ->
          Alcotest.failf "unexpected quarantine: %s" (Sup.quarantine_to_string q)
      | None -> Alcotest.fail "no outcome delivered")

let test_always_dying_quarantined () =
  let outcome = ref None in
  Sup.run
    ~config:{ fast with Sup.retries = 1 }
    ~jobs:1 ~tasks:1
    ~key:(fun _ -> "doomed")
    ~work:(fun _ -> Unix.kill (Unix.getpid ()) Sys.sigkill |> fun () -> "unreachable")
    ~consume:(fun _ o -> outcome := Some o)
    ();
  match !outcome with
  | Some (Sup.Quarantined q) ->
      check_string "key" "doomed" q.Sup.key;
      check_int "attempts = 1 + retries" 2 q.Sup.attempts;
      check_int "one failure per attempt" 2 (List.length q.Sup.failures);
      List.iter
        (fun f ->
          match f with
          | Sup.Signaled s -> check_int "killed by SIGKILL" Sys.sigkill s
          | other ->
              Alcotest.failf "expected Signaled, got %s"
                (Sup.failure_to_string other))
        q.Sup.failures;
      let s = Sup.quarantine_to_string q in
      check_bool "string names the attempt count" true
        (String.length s >= 11 && String.sub s 0 11 = "QUARANTINED")
  | Some other ->
      Alcotest.failf "expected quarantine, got %s"
        (match other with
        | Sup.Done s -> "Done " ^ s
        | Sup.Failed s -> "Failed " ^ s
        | Sup.Quarantined _ -> assert false)
  | None -> Alcotest.fail "no outcome delivered"

let test_quarantine_checkpointed_and_replayed () =
  (* A quarantined cell's QUARANTINED line is a checkpointed result: a
     resume replays it verbatim instead of re-running the cell — even if
     the cell would now succeed. *)
  with_temp_file (fun ckpt ->
      let dying =
        [
          {
            Sweep.key = "doomed";
            run =
              (fun () ->
                Unix.kill (Unix.getpid ()) Sys.sigkill;
                "unreachable");
          };
          { Sweep.key = "fine"; run = (fun () -> "ok") };
        ]
      in
      let first =
        render ~checkpoint:ckpt ~isolation:`Process
          ~supervisor:{ fast with Sup.retries = 1 }
          dying
      in
      let contains_quarantine =
        String.split_on_char '\n' first
        |> List.exists (fun l ->
               String.length l >= 11 && String.sub l 0 11 = "QUARANTINED")
      in
      check_bool "sweep printed the quarantine" true contains_quarantine;
      let healed =
        [
          { Sweep.key = "doomed"; run = (fun () -> "healed") };
          { Sweep.key = "fine"; run = (fun () -> "ok") };
        ]
      in
      check_string "resume replays the quarantine verbatim" first
        (render ~resume:true ~checkpoint:ckpt ~isolation:`Process
           ~supervisor:fast healed))

let test_watchdog_unresponsive () =
  (* A blocking, non-ticking task — the guard's documented blind spot.
     With SIGTERM at its default disposition the first kill suffices
     (forced = false); a task that ignores SIGTERM takes the SIGKILL
     escalation (forced = true). *)
  let hang ~ignore_term () =
    if ignore_term then Sys.set_signal Sys.sigterm Sys.Signal_ignore;
    while true do
      ignore (Sys.opaque_identity ())
    done;
    "unreachable"
  in
  let run_hanging ~ignore_term =
    let outcome = ref None in
    Sup.run
      ~config:
        { fast with Sup.retries = 0; timeout = Some 0.2; kill_grace = 0.1 }
      ~jobs:1 ~tasks:1
      ~key:(fun _ -> "hang")
      ~work:(fun _ -> hang ~ignore_term ())
      ~consume:(fun _ o -> outcome := Some o)
      ();
    match !outcome with
    | Some (Sup.Quarantined { failures = [ f ]; _ }) -> f
    | Some _ | None -> Alcotest.fail "expected a single-failure quarantine"
  in
  (match run_hanging ~ignore_term:false with
  | Sup.Unresponsive { limit; forced; elapsed } ->
      check_bool "limit recorded" true (limit = 0.2);
      check_bool "elapsed at least the limit" true (elapsed >= 0.2);
      check_bool "SIGTERM sufficed" false forced
  | other ->
      Alcotest.failf "expected Unresponsive, got %s" (Sup.failure_to_string other));
  (match run_hanging ~ignore_term:true with
  | Sup.Unresponsive { forced; _ } ->
      check_bool "SIGKILL escalation fired" true forced
  | other ->
      Alcotest.failf "expected forced Unresponsive, got %s"
        (Sup.failure_to_string other));
  (* The certificate mapping for the blind spot. *)
  match Sup.to_misbehavior (Sup.Unresponsive { elapsed = 1.; limit = 0.5; forced = true }) with
  | Some (Harness.Misbehavior.Unresponsive { elapsed; limit }) ->
      check_bool "certificate fields" true (elapsed = 1. && limit = 0.5)
  | _ -> Alcotest.fail "Unresponsive must map to a Misbehavior certificate"

let test_deterministic_raise_not_retried () =
  (* A raising thunk is a result, not a crash: exactly one spawn, outcome
     Failed, never quarantined — retrying a deterministic raise would
     desync the two isolation modes. *)
  with_temp_file (fun counter ->
      (try Sys.remove counter with Sys_error _ -> ());
      let outcome = ref None in
      Sup.run ~config:fast ~jobs:1 ~tasks:1
        ~key:(fun _ -> "raiser")
        ~work:(fun _ ->
          let n =
            if Sys.file_exists counter then
              In_channel.with_open_bin counter In_channel.input_all
              |> String.trim |> int_of_string
            else 0
          in
          Out_channel.with_open_bin counter (fun oc ->
              Printf.fprintf oc "%d\n" (n + 1));
          failwith "deterministic")
        ~consume:(fun _ o -> outcome := Some o)
        ();
      (match !outcome with
      | Some (Sup.Failed msg) ->
          check_string "payload is the exception text" "Failure(\"deterministic\")" msg
      | _ -> Alcotest.fail "expected Failed");
      let attempts =
        In_channel.with_open_bin counter In_channel.input_all
        |> String.trim |> int_of_string
      in
      check_int "single attempt" 1 attempts)

let test_inline_short_circuits () =
  (* inline results never fork: deliver them for every task and the
     supervisor must not spawn at all (work would touch the filesystem). *)
  let seen = ref [] in
  Sup.run ~config:fast ~jobs:2 ~tasks:3
    ~key:(string_of_int)
    ~inline:(fun i -> Some (Printf.sprintf "inline-%d" i))
    ~work:(fun _ -> Alcotest.fail "work must not run")
    ~consume:(fun i o ->
      match o with
      | Sup.Done s -> seen := (i, s) :: !seen
      | _ -> Alcotest.fail "expected Done")
    ();
  check_bool "delivered in index order" true
    (List.rev !seen = [ (0, "inline-0"); (1, "inline-1"); (2, "inline-2") ])

(* thm1 sweep cells under the process backend.  The game cache behind
   Jobs_catalog.thm1_cell is a plain table in whichever process runs the
   cell, so nothing about it crosses the supervisor wire or the
   checkpoint file — which is what makes the cached cells' output
   independent of isolation mode, worker count, kills, and resume
   history.  [~cached:false] gives the same keys on the live path
   (Jobs_catalog.thm1_run), the reference. *)
let thm1_cells ~cached () =
  List.concat_map
    (fun t ->
      List.map
        (fun algo ->
          let cell = Jobs_catalog.thm1_cell ~validate:false ~t ~k:5 ~side:60 ~algo () in
          if cached then cell
          else { cell with run = Jobs_catalog.thm1_run ~validate:false ~t ~k:5 ~side:60 ~algo })
        [ "greedy"; "stripes" ])
    [ 1; 2 ]

(* Workers fork from this process and inherit its table: empty it so a
   leg's workers start cold. *)
let cold_cache () = Hashtbl.reset Jobs_catalog.thm1_reports

(* `In_domain runs the cells one after another whatever [jobs] is, so
   its one leg is jobs 1; test_catalog's "memo variants agree" renders
   the cached grid on 4 worker processes too. *)
let test_memo_isolation_modes () =
  let baseline = render ~isolation:`In_domain (thm1_cells ~cached:false ()) in
  List.iter
    (fun (label, jobs, isolation) ->
      cold_cache ();
      check_string label baseline
        (render ~jobs ~isolation ~supervisor:fast (thm1_cells ~cached:true ())))
    [
      ("memo in-domain jobs 1", 1, `In_domain);
      ("memo proc jobs 1", 1, `Process);
      ("memo proc jobs 2", 2, `Process);
    ]

let test_memo_kill_resume () =
  (* A cached sweep whose worker gets SIGKILLed mid-cell, retried, then
     cut off and resumed from the checkpoint: the final output must be
     byte-identical to a clean live run (the replacement worker and the
     resumed process start with a cold cache — only wall-clock may
     differ), and the checkpoint bytes themselves must be identical to
     the live run's checkpoint — the cache is never serialized into
     it. *)
  let killer marker =
    {
      Sweep.key = "killer";
      run =
        (fun () ->
          if not (Sys.file_exists marker) then begin
            Out_channel.with_open_bin marker (fun _ -> ());
            Unix.kill (Unix.getpid ()) Sys.sigkill
          end;
          "survived")
    }
  in
  let cells ~cached marker = thm1_cells ~cached () @ [ killer marker ] in
  (* The marker file gates the kill: it exists during every in-domain
     render (killer returns immediately — killing there would take down
     the test process) and is removed only just before the
     process-isolated render, whose forked worker takes the SIGKILL. *)
  with_temp_file (fun marker ->
      let clean = render ~isolation:`In_domain (cells ~cached:false marker) in
      with_temp_file (fun ckpt_off ->
          with_temp_file (fun ckpt_on ->
              ignore
                (render ~checkpoint:ckpt_off ~isolation:`In_domain
                   (cells ~cached:false marker));
              (try Sys.remove marker with Sys_error _ -> ());
              cold_cache ();
              let killed =
                render ~checkpoint:ckpt_on ~isolation:`Process
                  ~supervisor:fast (cells ~cached:true marker)
              in
              check_string "the cached sweep survives the kill" clean killed;
              let bytes path =
                In_channel.with_open_bin path In_channel.input_all
              in
              check_string "checkpoint bytes carry no cache" (bytes ckpt_off)
                (bytes ckpt_on);
              (* Truncate the checkpoint to its first records and resume
                 the cached cells in the other isolation mode, cold. *)
              let contents = bytes ckpt_on in
              let cut =
                match String.index_from_opt contents
                        (String.length contents / 2) '\n'
                with
                | Some i -> i + 1
                | None -> String.length contents
              in
              Out_channel.with_open_bin ckpt_on (fun oc ->
                  Out_channel.output_string oc (String.sub contents 0 cut));
              cold_cache ();
              check_string "the cached resume replays byte-identically" clean
                (render ~resume:true ~checkpoint:ckpt_on ~isolation:`In_domain
                   (cells ~cached:true marker)))))

let test_ordered_delivery_uneven () =
  (* Tasks finish in reverse order on four workers; consume still sees
     them in index order, a raising task included. *)
  let seen = ref [] in
  Sup.run ~config:fast ~jobs:4 ~tasks:8
    ~key:string_of_int
    ~work:(fun i ->
      Unix.sleepf (float_of_int (8 - i) *. 0.005);
      if i = 5 then failwith "task 5";
      string_of_int (i * i))
    ~consume:(fun i o -> seen := (i, Sup.outcome_to_string o) :: !seen)
    ();
  Alcotest.(check (list (pair int string)))
    "index order, values and the raise in place"
    (List.init 8 (fun i ->
         (i, if i = 5 then "ERROR: Failure(\"task 5\")" else string_of_int (i * i))))
    (List.rev !seen)

(* Fork copies Filename's temp-name generator, so once the parent has
   drawn a name, sibling workers would draw one and the same sequence:
   a name one worker freed, the other could take.  The parent draws
   first here; then two workers draw names and remove the files, as the
   sweep-kill fuzz target does.  No path may repeat, and no worker's
   temp directory may outlive the run. *)
let test_sibling_temp_names () =
  with_temp_file (fun _ ->
      let names = ref [] in
      Sup.run ~config:fast ~jobs:2 ~tasks:4 ~key:string_of_int
        ~work:(fun _ ->
          String.concat "\n"
            (List.init 5 (fun _ ->
                 let path = Filename.temp_file "sibling" ".tmp" in
                 Sys.remove path;
                 path)))
        ~consume:(fun _ o ->
          names := String.split_on_char '\n' (Sup.outcome_to_string o) @ !names)
        ();
      check_int "paths drawn" 20 (List.length !names);
      check_int "no path repeats" 20 (List.length (List.sort_uniq String.compare !names));
      List.iter
        (fun path ->
          check_bool "worker directory removed" false
            (Sys.file_exists (Filename.dirname path)))
        !names)

(* A worker killed mid-task cannot clean up after itself: the parent
   removes its temp directory when it reaps it. *)
let test_killed_worker_temp_dir () =
  with_temp_file (fun record ->
      Sup.run ~config:{ fast with Sup.retries = 0 } ~jobs:1 ~tasks:1 ~key:string_of_int
        ~work:(fun _ ->
          let path = Filename.temp_file "killed" ".tmp" in
          Out_channel.with_open_bin record (fun oc -> output_string oc path);
          Unix.kill (Unix.getpid ()) Sys.sigkill;
          "unreachable")
        ~consume:(fun _ _ -> ())
        ();
      let path = In_channel.with_open_bin record In_channel.input_all in
      check_bool "drawn in the worker's directory" true
        (Filename.dirname path <> Filename.get_temp_dir_name ());
      check_bool "killed worker's directory removed" false
        (Sys.file_exists (Filename.dirname path)))

(* OCaml 5.1 refuses Unix.fork for the rest of a process's life once a
   domain was spawned, joined or not.  A worker whose task spawned one
   must retire, or the next task it takes cannot fork workers of its
   own. *)
let test_domain_spawner_retires () =
  let cells =
    [
      {
        Sweep.key = "spawner";
        run = (fun () -> string_of_int (Domain.join (Domain.spawn (fun () -> 6 * 7))));
      };
      {
        Sweep.key = "forker";
        run =
          (fun () ->
            render ~isolation:`Process ~supervisor:fast
              [ { Sweep.key = "inner"; run = (fun () -> "inner ok") } ]);
      };
    ]
  in
  check_string "the second task forks on a fresh worker" "42\ninner ok\n\n"
    (render ~jobs:1 ~isolation:`Process ~supervisor:fast cells)

(* --------------------------- worker events --------------------------- *)

(* A guarded thm1 game against greedy whose color-call budget runs out
   mid-game: the guard's Misbehavior certificate is an anomaly, and
   Step events come before it. *)
let budget_cell =
  {
    Sweep.key = "budget";
    run =
      (fun () ->
        let g = Option.get (Online_local.Game.find "thm1-grid") in
        let v =
          g.Online_local.Game.play
            ~limits:
              { Harness.Guard.max_color_calls = Some 40; max_work = None; deadline = None }
            ~n:30
            (Online_local.Portfolio.greedy ())
        in
        Online_local.Verdict.label v.Online_local.Verdict.outcome);
  }

let traced_cells () = thm1_cells ~cached:false () @ [ budget_cell ]

let with_traced f =
  with_temp_file (fun path ->
      let out = Obs.Trace.with_sink ~program:"test_supervisor" ~path f in
      (out, Obs.Trace.read_file path))

let kind_counts records =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let tag = Obs.Trace.kinds.(fst (Obs.Trace.to_values r.Obs.Trace.ev)).Obs.Trace.tag in
      if not (String.starts_with ~prefix:"child_" tag) then
        Hashtbl.replace counts tag (1 + Option.value ~default:0 (Hashtbl.find_opt counts tag)))
    records;
  List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [])

let test_worker_events_relayed () =
  (* Worker processes ship their cells' events to the parent's sink:
     apart from the supervisor's own child_* events, a sweep on two
     workers traces exactly the events of the in-process sweep, and
     every cell's span sits on the stream of the worker that ran it. *)
  let base_out, base = with_traced (fun () -> render (traced_cells ())) in
  let out, records =
    with_traced (fun () ->
        render ~jobs:2 ~isolation:`Process ~supervisor:fast (traced_cells ()))
  in
  check_string "output" base_out out;
  Alcotest.(check (list (pair string int)))
    "per-kind counts" (kind_counts base) (kind_counts records);
  let streams =
    List.sort_uniq compare
      (List.filter_map
         (fun r ->
           match r.Obs.Trace.ev with
           | Obs.Trace.Cell_start _ | Obs.Trace.Step _ | Obs.Trace.Cell_finish _ ->
               Some r.Obs.Trace.w
           | _ -> None)
         records)
  in
  Alcotest.(check (list int)) "cells and steps on worker slots 1 and 2" [ 1; 2 ] streams

let test_worker_anomaly_in_flight_file () =
  (* With only a flight recorder, a worker ships just the events of a
     cell that hit an anomaly: the file holds that cell's steps, the
     anomaly itself and its tail, on the worker's stream — and nothing
     from the clean cells. *)
  with_temp_file (fun path ->
      ignore
        (Obs.Flight.with_sink ~program:"test_supervisor" ~path (fun () ->
             render ~jobs:2 ~isolation:`Process ~supervisor:fast (traced_cells ())));
      let records = List.tl (Obs.Flight.read_file path) in
      let cells =
        List.filter_map
          (fun r ->
            match r.Obs.Trace.ev with Obs.Trace.Cell_start { key } -> Some key | _ -> None)
          records
      in
      Alcotest.(check (list string)) "only the anomalous cell" [ "budget" ] cells;
      let rec steps_then_anomaly seen_step = function
        | [] -> false
        | { Obs.Trace.ev = Obs.Trace.Step _; _ } :: rest -> steps_then_anomaly true rest
        | { Obs.Trace.ev = Obs.Trace.Misbehavior _; _ } :: _ -> seen_step
        | _ :: rest -> steps_then_anomaly seen_step rest
      in
      check_bool "steps, then the misbehavior" true (steps_then_anomaly false records);
      check_bool "the verdict rides the tail flush" true
        (List.exists
           (fun r -> match r.Obs.Trace.ev with Obs.Trace.Game_verdict _ -> true | _ -> false)
           records);
      check_bool "the cell's events on its worker's stream" true
        (List.for_all
           (fun r ->
             match r.Obs.Trace.ev with
             | Obs.Trace.Cell_start _ | Obs.Trace.Step _ | Obs.Trace.Misbehavior _
             | Obs.Trace.Game_verdict _ ->
                 r.Obs.Trace.w >= 1
             | _ -> true)
           records));
  with_temp_file (fun path ->
      ignore
        (Obs.Flight.with_sink ~program:"test_supervisor" ~path (fun () ->
             render ~jobs:2 ~isolation:`Process ~supervisor:fast
               (thm1_cells ~cached:false ())));
      check_int "a clean sweep leaves the header only" 1
        (List.length (Obs.Flight.read_file path)))

(* A worker whose parent dies mid-task quits at once, removing its temp
   directory, instead of finishing a task nobody will read.  The
   kernel's parent-death signal is Linux's: without /proc this checks
   nothing. *)
let test_orphan_quits () =
  let alive pid =
    match
      In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all
    with
    | stat -> stat.[String.rindex stat ')' + 2] <> 'Z'
    | exception Sys_error _ -> false
  in
  if Sys.file_exists "/proc/self/stat" then
    with_temp_file (fun record ->
        match Unix.fork () with
        | 0 ->
            (try
               Sup.run ~jobs:1 ~tasks:1 ~key:string_of_int
                 ~work:(fun _ ->
                   Out_channel.with_open_bin record (fun oc ->
                       output_string oc (string_of_int (Unix.getpid ())));
                   ignore (Unix.select [] [] [] 10.);
                   "finished")
                 ~consume:(fun _ _ -> ())
                 ()
             with _ -> ());
            Unix._exit 0
        | parent ->
            let rec worker tries =
              match int_of_string_opt (In_channel.with_open_bin record In_channel.input_all) with
              | Some pid -> pid
              | None when tries > 0 ->
                  Unix.sleepf 0.01;
                  worker (tries - 1)
              | None -> Alcotest.fail "the worker never started its task"
            in
            let pid = worker 1000 in
            Unix.kill parent Sys.sigkill;
            ignore (Unix.waitpid [] parent);
            let dir = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "worker-%d" pid) in
            let t0 = Unix.gettimeofday () in
            let rec quits () =
              (not (alive pid || Sys.file_exists dir))
              || (Unix.gettimeofday () -. t0 < 0.5 && (Unix.sleepf 0.01; quits ()))
            in
            check_bool "the orphan quit within 0.5 s and removed its directory" true
              (quits ()))

let test_validation () =
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  let run_with ?(jobs = 1) ?(tasks = 0) config =
    Sup.run ~config ~jobs ~tasks
      ~key:(fun _ -> "k")
      ~work:(fun _ -> "r")
      ~consume:(fun _ _ -> ())
      ()
  in
  rejects "retries < 0" (fun () -> run_with { fast with Sup.retries = -1 });
  rejects "timeout <= 0" (fun () -> run_with { fast with Sup.timeout = Some 0. });
  rejects "kill_grace <= 0" (fun () -> run_with { fast with Sup.kill_grace = 0. });
  rejects "backoff_base < 0" (fun () ->
      run_with { fast with Sup.backoff = { fast.Sup.backoff with base = -0.1 } });
  rejects "backoff_max < backoff_base" (fun () ->
      run_with
        { fast with Sup.backoff = { fast.Sup.backoff with base = 1.0; max = 0.5 } });
  rejects "jobs < 1" (fun () -> run_with ~jobs:0 fast);
  rejects "tasks < 0" (fun () -> run_with ~tasks:(-1) fast);
  rejects "sweep jobs < 1" (fun () ->
      Sweep.run ~jobs:0 ~ppf:Format.str_formatter []);
  (* and the valid default passes *)
  Sup.validate_config Sup.default_config

let () =
  Alcotest.run "supervisor"
    [
      ( "byte-identity",
        [
          Alcotest.test_case "proc = in-domain, all jobs" `Quick
            test_proc_matches_indomain;
          Alcotest.test_case "cross-mode resume" `Quick test_cross_mode_resume;
          Alcotest.test_case "memo across isolation modes" `Quick
            test_memo_isolation_modes;
          Alcotest.test_case "memo kill + resume, cache not checkpointed"
            `Quick test_memo_kill_resume;
          Alcotest.test_case "blocking cells print the in-process bytes on workers"
            `Quick test_blocking_cells;
        ] );
      ( "kill-tolerance",
        [
          Alcotest.test_case "self-SIGKILL retried" `Quick test_self_kill_retried;
          Alcotest.test_case "always dying quarantined" `Quick
            test_always_dying_quarantined;
          Alcotest.test_case "quarantine checkpointed" `Quick
            test_quarantine_checkpointed_and_replayed;
          Alcotest.test_case "watchdog unresponsive" `Quick
            test_watchdog_unresponsive;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "raise never retried" `Quick
            test_deterministic_raise_not_retried;
          Alcotest.test_case "inline short-circuits" `Quick
            test_inline_short_circuits;
          Alcotest.test_case "ordered delivery, uneven costs" `Quick
            test_ordered_delivery_uneven;
          Alcotest.test_case "a worker that spawned a domain retires" `Quick
            test_domain_spawner_retires;
          Alcotest.test_case "sibling workers draw distinct temp names" `Quick
            test_sibling_temp_names;
          Alcotest.test_case "a killed worker's temp directory is removed" `Quick
            test_killed_worker_temp_dir;
          Alcotest.test_case "an orphaned worker quits mid-task" `Quick test_orphan_quits;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "worker-events",
        [
          Alcotest.test_case "relayed to the parent's trace" `Quick
            test_worker_events_relayed;
          Alcotest.test_case "anomaly reaches the flight file" `Quick
            test_worker_anomaly_in_flight_file;
        ] );
    ]
