(* The guarded game engine: budgets, deadlines, typed misbehavior,
   fault injection, and crash-tolerant checkpointed sweeps. *)

open Online_local
module A = Models.Algorithm
module FH = Models.Fixed_host
module RS = Models.Run_stats
module G = Harness.Guard
module M = Harness.Misbehavior

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let constant c = A.stateless ~name:"constant" ~locality:(fun ~n:_ -> 1) (fun _ -> c)

let path_run ?(palette = 3) ?(order = [ 0; 1; 2; 3 ]) algorithm =
  FH.run ~host:(Grid_graph.Graph.path_graph 5) ~palette ~algorithm ~order ()

(* ------------------------------ guard ------------------------------ *)

let test_work_budget_stops_spin () =
  let limits = { G.no_limits with max_work = Some 1000 } in
  let guard = G.create ~limits () in
  let spinner = G.algorithm guard (Harness.Faults.spin ~steps:1 (constant 0)) in
  let outcome = path_run spinner in
  (match G.fault guard with
  | Some (M.Budget_exhausted { used; budget = 1000 }) ->
      (* Bounded: the loop stopped within one tick of the budget. *)
      check_int "stopped at the budget" 1001 used
  | _ -> Alcotest.fail "expected Budget_exhausted");
  (* The executor saw a contained failure, not an abort. *)
  check_bool "violation recorded" true
    (match outcome.RS.violation with
    | Some (RS.Algorithm_failure _) -> true
    | _ -> false)

let test_color_call_budget () =
  let limits = { G.no_limits with max_color_calls = Some 2 } in
  let guard = G.create ~limits () in
  let outcome = path_run (G.algorithm guard (constant 0)) in
  (match G.fault guard with
  | Some (M.Budget_exhausted { used = 3; budget = 2 }) -> ()
  | _ -> Alcotest.fail "expected call-budget exhaustion");
  check_int "two honest answers before the cutoff" 3 outcome.RS.presented

let test_deadline_exceeded () =
  (* A zero deadline is already past at the first color call — the
     deterministic way to exercise the deadline path. *)
  let limits = { G.no_limits with deadline = Some 0.0 } in
  let guard = G.create ~limits () in
  ignore (path_run (G.algorithm guard (constant 0)));
  match G.fault guard with
  | Some (M.Deadline_exceeded { deadline = 0.0; _ }) -> ()
  | _ -> Alcotest.fail "expected Deadline_exceeded"

let test_fatal_exceptions_propagate () =
  let fatal =
    A.stateless ~name:"fatal" ~locality:(fun ~n:_ -> 1) (fun _ -> raise Stack_overflow)
  in
  let guard = G.create ~limits:G.no_limits () in
  (* Through the guard AND the executor AND capture: never swallowed. *)
  Alcotest.check_raises "stack overflow reaches the top" Stack_overflow (fun () ->
      match G.capture guard (fun () -> path_run (G.algorithm guard fatal)) with
      | Ok _ | Error _ -> ());
  check_bool "no fault recorded for fatal" true (G.fault guard = None)

let test_poisoned_after_first_fault () =
  let guard = G.create ~limits:G.no_limits () in
  let algo = G.algorithm guard (Harness.Faults.raise_at ~step:2 (constant 0)) in
  let outcome = path_run algo in
  (* The executor stopped at the failing step; the guard holds the
     typed cause and would fail fast on any further call. *)
  check_int "stopped at step 2" 2 outcome.RS.presented;
  match G.fault guard with
  | Some (M.Raised { message; _ }) ->
      check_bool "message kept" true (String.length message > 0)
  | _ -> Alcotest.fail "expected Raised"

let test_instantiate_failure_poisons () =
  let broken =
    {
      A.name = "broken-instantiate";
      locality = (fun ~n:_ -> 1);
      instantiate = (fun ~n:_ ~palette:_ ~oracle:_ -> failwith "ctor boom");
    }
  in
  let guard = G.create ~limits:G.no_limits () in
  let outcome = path_run (G.algorithm guard broken) in
  check_bool "typed fault" true
    (match G.fault guard with Some (M.Raised _) -> true | _ -> false);
  check_bool "run degraded, not aborted" true
    (match outcome.RS.violation with
    | Some (RS.Algorithm_failure _) -> true
    | _ -> false)

let test_capture_classifies () =
  let guard = G.create ~limits:G.no_limits () in
  check_bool "ok" true (G.capture guard (fun () -> 41 + 1) = Ok 42);
  (match G.capture guard (fun () -> failwith "adversary bug") with
  | Error (M.Raised { message; _ }) ->
      check_bool "message" true (String.length message > 0)
  | _ -> Alcotest.fail "expected Error Raised");
  Alcotest.check_raises "fatal re-raised" Out_of_memory (fun () ->
      ignore (G.capture guard (fun () -> raise Out_of_memory)))

let test_tick_without_guard_is_noop () =
  (* Fault wrappers call tick unconditionally; outside a guarded call it
     must be free and harmless. *)
  for _ = 1 to 1000 do
    G.tick ()
  done

(* ------------------------------ faults ----------------------------- *)

let test_wrong_color_alternates () =
  let outcome = path_run (Harness.Faults.wrong_color ~every:2 (constant 0)) in
  let c v = Colorings.Coloring.get outcome.RS.coloring v in
  check_bool "odd calls honest" true (c 0 = Some 0 && c 2 = Some 0);
  check_bool "even calls shifted" true (c 1 = Some 1 && c 3 = Some 1)

let test_out_of_palette_default_color () =
  let outcome = path_run (Harness.Faults.out_of_palette ~at_step:1 (constant 0)) in
  match outcome.RS.violation with
  | Some (RS.Palette_overflow { color = 3; _ }) -> ()
  | _ -> Alcotest.fail "expected overflow with color = palette"

let test_amnesia_reinstantiates () =
  let instantiations = ref 0 in
  let counting =
    {
      A.name = "counting";
      locality = (fun ~n:_ -> 1);
      instantiate =
        (fun ~n:_ ~palette:_ ~oracle:_ ->
          incr instantiations;
          fun _ -> 0);
    }
  in
  ignore (path_run (Harness.Faults.amnesia counting));
  check_int "fresh instance per call" 4 !instantiations;
  ignore (path_run counting);
  check_int "baseline instantiates once" 5 !instantiations

let test_fault_wrappers_rename () =
  check_string "tagged name" "spin@3(constant)"
    (Harness.Faults.spin ~steps:3 (constant 0)).A.name

let dummy_view =
  {
    Models.View.n_total = 1;
    palette = 3;
    node_count = (fun () -> 1);
    neighbors = (fun _ -> []);
    mem_edge = (fun _ _ -> false);
    id = (fun h -> h);
    output = (fun _ -> None);
    hint = (fun _ -> None);
    target = 0;
    new_nodes = [ 0 ];
    step = 1;
  }

let test_chaos_oracle_corrupts () =
  let honest =
    { Models.Oracle.parts = 2; radius = 0; query = (fun _ hs -> Array.make (List.length hs) 0) }
  in
  let chaotic = Harness.Faults.chaos_oracle ~seed:0 honest in
  let parts = chaotic.Models.Oracle.query dummy_view [ 0; 1; 2; 3 ] in
  Alcotest.(check (array int)) "even handles flipped" [| 1; 0; 1; 0 |] parts;
  check_int "parts preserved" 2 chaotic.Models.Oracle.parts

let test_chaos_oracle_preserves_shared_buffer () =
  (* An oracle may answer from a shared or cached buffer; the fault
     injector must corrupt the answer, never the oracle's own state. *)
  let shared = Array.make 4 0 in
  let honest = { Models.Oracle.parts = 2; radius = 0; query = (fun _ _ -> shared) } in
  let chaotic = Harness.Faults.chaos_oracle ~seed:0 honest in
  let parts = chaotic.Models.Oracle.query dummy_view [ 0; 1; 2; 3 ] in
  Alcotest.(check (array int)) "answer perturbed" [| 1; 0; 1; 0 |] parts;
  Alcotest.(check (array int)) "wrapped oracle's buffer untouched" [| 0; 0; 0; 0 |] shared

(* --------------------------- classification ------------------------ *)

let test_rigged_dishonest_transcript () =
  let v =
    Game.referee ~adversary:"rigged" ~n:1 ~guaranteed:false (Portfolio.greedy ())
      (fun _ -> raise (RS.Dishonest_transcript "frame 0 lied about an edge"))
  in
  match v.Game.outcome with
  | Game.Adversary_fault
      (M.Dishonest_transcript { message = "frame 0 lied about an edge" }) ->
      ()
  | o -> Alcotest.failf "expected dishonest transcript, got %s" (Game.outcome_label o)

let test_audit_like_message_stays_raised () =
  (* Classification is by exception constructor, never message text: a
     generic crash whose message merely resembles an audit diagnostic
     must not be promoted to a Dishonest_transcript certificate. *)
  let v =
    Game.referee ~adversary:"rigged" ~n:1 ~guaranteed:false (Portfolio.greedy ())
      (fun _ -> failwith "validate: node 7 presented twice")
  in
  match v.Game.outcome with
  | Game.Adversary_fault (M.Raised _) -> ()
  | o -> Alcotest.failf "expected generic raised, got %s" (Game.outcome_label o)

let test_rigged_repeated_presentation () =
  let v =
    Game.referee ~adversary:"rigged" ~n:1 ~guaranteed:false (Portfolio.greedy ())
      (fun _ -> (`Defeated (RS.Repeated_presentation 3), "rigged detail"))
  in
  match v.Game.outcome with
  | Game.Adversary_fault (M.Dishonest_transcript _) -> ()
  | o -> Alcotest.failf "expected adversary fault, got %s" (Game.outcome_label o)

let test_rigged_adversary_crash () =
  let v =
    Game.referee ~adversary:"rigged" ~n:1 ~guaranteed:false (Portfolio.greedy ())
      (fun _ -> invalid_arg "adversary bug")
  in
  check_bool "adversary fault" true
    (match v.Game.outcome with
    | Game.Adversary_fault (M.Raised _) -> true
    | _ -> false);
  check_bool "not a defeat" false v.Game.defeated

let test_paranoid_thm1_stays_defeated () =
  let v = Game.thm1.Game.play ~paranoid:true ~n:25 (Portfolio.greedy ()) in
  check_bool "audited defeat" true v.Game.defeated

(* ---------------------------- fault matrix -------------------------- *)

(* Pinned from a reference run; every row is deterministic (seeded
   orders, counter-based faults, work budgets — no clocks).  The shape
   that matters: honest losses stay DEFEATED, in-palette bugs lose
   honestly, everything else degrades to a typed fault, and no cell
   aborts the matrix. *)
let expected_matrix =
  let lower_games = [ "thm1-grid"; "thm2-torus"; "thm2-cylinder"; "thm3-gadgets" ] in
  let upper_games = [ "upper-grid"; "upper-grid-oracle" ] in
  List.concat_map
    (fun game ->
      let baseline = if List.mem game lower_games then "DEFEATED" else "survived" in
      let amnesia =
        (* greedy and gadget-rows carry no global state, so amnesia just
           loses honestly; ael and kp1 crash without their memory. *)
        match game with
        | "thm2-torus" | "thm2-cylinder" | "thm3-gadgets" -> "DEFEATED"
        | _ -> "ALGORITHM-FAULT (raised)"
      in
      [
        (game, "none", baseline);
        (game, "wrong-color", "DEFEATED");
        (game, "out-of-palette", "ALGORITHM-FAULT (out-of-palette)");
        (game, "raise", "ALGORITHM-FAULT (raised)");
        (game, "spin", "ALGORITHM-FAULT (budget-exhausted)");
        (game, "amnesia", amnesia);
      ])
    (lower_games @ upper_games)

let test_fault_matrix () =
  let actual = Experiments.fault_matrix () in
  check_int "matrix size" (List.length expected_matrix) (List.length actual);
  List.iter2
    (fun (eg, ef, eo) (ag, af, ao) ->
      check_string (Printf.sprintf "%s/%s game" eg ef) eg ag;
      check_string (Printf.sprintf "%s/%s fault" eg ef) ef af;
      check_string (Printf.sprintf "%s x %s" eg ef) eo ao)
    expected_matrix actual

(* ------------------------------ sweep ------------------------------ *)

let with_temp_checkpoint f =
  let path = Filename.temp_file "sweep_test" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let render cells ?resume ?checkpoint ?jobs ?isolation () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Harness.Sweep.run ?resume ?checkpoint ?jobs ?isolation ~ppf cells;
  Buffer.contents buf

let counted_cells log =
  List.map
    (fun key ->
      {
        Harness.Sweep.key;
        run =
          (fun () ->
            log := key :: !log;
            "result of " ^ key ^ "\nsecond line of " ^ key);
      })
    [ "a"; "b"; "c" ]

let test_sweep_resume_byte_identical () =
  with_temp_checkpoint (fun path ->
      let log = ref [] in
      let full = render (counted_cells log) ~checkpoint:path () in
      check_int "three cells ran" 3 (List.length !log);
      (* Drop the last checkpoint line: simulate a kill between cells
         (line 0 is the version header). *)
      let lines =
        String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all)
      in
      let kept = List.filteri (fun i _ -> i < 3) lines in
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) kept);
      log := [];
      let resumed = render (counted_cells log) ~resume:true ~checkpoint:path () in
      check_string "byte-identical output" full resumed;
      Alcotest.(check (list string)) "only the missing cell reran" [ "c" ] !log;
      (* And the checkpoint is complete again: a second resume runs nothing. *)
      log := [];
      let again = render (counted_cells log) ~resume:true ~checkpoint:path () in
      check_string "still byte-identical" full again;
      check_int "nothing reran" 0 (List.length !log))

let test_sweep_crashed_cell_continues () =
  let cells =
    [
      { Harness.Sweep.key = "good"; run = (fun () -> "ok") };
      { Harness.Sweep.key = "bad"; run = (fun () -> failwith "cell exploded") };
      { Harness.Sweep.key = "after"; run = (fun () -> "still here") };
    ]
  in
  let out = render cells () in
  check_string "error recorded, sweep continued"
    "ok\nERROR: Failure(\"cell exploded\")\nstill here\n" out

let test_sweep_duplicate_keys_rejected () =
  let cells =
    [
      { Harness.Sweep.key = "same"; run = (fun () -> "x") };
      { Harness.Sweep.key = "same"; run = (fun () -> "y") };
    ]
  in
  Alcotest.check_raises "duplicate keys"
    (Invalid_argument "Sweep.run: duplicate cell key same") (fun () ->
      ignore (render cells ()))

let test_sweep_interrupt_preserves_checkpoint () =
  with_temp_checkpoint (fun path ->
      let cells =
        [
          { Harness.Sweep.key = "first"; run = (fun () -> "done first") };
          { Harness.Sweep.key = "second"; run = (fun () -> raise Harness.Sweep.Interrupted) };
          { Harness.Sweep.key = "third"; run = (fun () -> "done third") };
        ]
      in
      (try ignore (render cells ~checkpoint:path ()) with
      | Harness.Sweep.Interrupted -> ());
      let saved = In_channel.with_open_text path In_channel.input_all in
      check_bool "first cell checkpointed" true (String.length saved > 0);
      (* Resume completes the remaining cells without rerunning the first. *)
      let log = ref [] in
      let cells' =
        List.map
          (fun key ->
            {
              Harness.Sweep.key;
              run =
                (fun () ->
                  log := key :: !log;
                  "done " ^ key);
            })
          [ "first"; "second"; "third" ]
      in
      let out = render cells' ~resume:true ~checkpoint:path () in
      Alcotest.(check (list string)) "only unfinished cells ran" [ "third"; "second" ] !log;
      check_string "full output" "done first\ndone second\ndone third\n" out)

(* Pinned renderings: Misbehavior.pp feeds verdict details, trace
   Misbehavior events and the fault-matrix table — its exact text is a
   compatibility surface, so change it deliberately. *)
let test_misbehavior_pp_pinned () =
  let render m = Format.asprintf "%a" M.pp m in
  check_string "raised without backtrace" "raised: Failure(\"boom\")"
    (render (M.Raised { message = "Failure(\"boom\")"; backtrace = "" }));
  check_string "raised with backtrace"
    "raised: Failure(\"boom\") [backtrace recorded]"
    (render (M.Raised { message = "Failure(\"boom\")"; backtrace = "Raised at ..." }));
  check_string "out of palette" "out-of-palette color 17"
    (render (M.Out_of_palette { color = 17 }));
  check_string "budget" "budget exhausted (1001 > 1000)"
    (render (M.Budget_exhausted { used = 1001; budget = 1000 }));
  check_string "deadline" "deadline exceeded (2.500s > 1.000s)"
    (render (M.Deadline_exceeded { elapsed = 2.5; deadline = 1.0 }));
  check_string "dishonest" "dishonest transcript: replay diverged"
    (render (M.Dishonest_transcript { message = "replay diverged" }));
  check_string "unresponsive"
    "unresponsive: killed by supervisor after 3.200s (limit 2.000s)"
    (render (M.Unresponsive { elapsed = 3.2; limit = 2.0 }));
  (* label stays in lockstep with pp: both name every variant *)
  Alcotest.(check (list string)) "labels"
    [
      "raised";
      "out-of-palette";
      "budget-exhausted";
      "deadline-exceeded";
      "dishonest-transcript";
      "unresponsive";
    ]
    (List.map M.label
       [
         M.Raised { message = ""; backtrace = "" };
         M.Out_of_palette { color = 0 };
         M.Budget_exhausted { used = 0; budget = 0 };
         M.Deadline_exceeded { elapsed = 0.; deadline = 0. };
         M.Dishonest_transcript { message = "" };
         M.Unresponsive { elapsed = 0.; limit = 0. };
       ])

let test_sweep_break_mid_cell_not_recorded () =
  (* What SIGINT now does: Sys.Break out of the deepest containment
     layer.  capture must re-raise it as fatal, the sweep must surface
     Interrupted, and the interrupted cell must NOT be recorded as a
     fake result in the checkpoint. *)
  with_temp_checkpoint (fun path ->
      let cells =
        [
          { Harness.Sweep.key = "first"; run = (fun () -> "done first") };
          {
            Harness.Sweep.key = "break";
            run =
              (fun () ->
                let guard = G.create ~limits:G.no_limits () in
                match G.capture guard (fun () -> raise Sys.Break) with
                | Ok _ | Error _ -> "swallowed");
          };
        ]
      in
      (try
         ignore (render cells ~checkpoint:path ());
         Alcotest.fail "expected Interrupted"
       with Harness.Sweep.Interrupted -> ());
      let saved = In_channel.with_open_text path In_channel.input_all in
      let body = "first\tdone first" in
      check_string "only the completed cell is checkpointed"
        (Printf.sprintf "#sweep-checkpoint v2\n%s\t@%08x:%d\n" body
           (Harness.Wire.crc32 body) (String.length body))
        saved)

let test_sweep_torn_record_reruns () =
  with_temp_checkpoint (fun path ->
      let log = ref [] in
      let full = render (counted_cells log) ~checkpoint:path () in
      (* Tear the final record: a kill mid-write leaves no newline. *)
      let saved = In_channel.with_open_text path In_channel.input_all in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (String.sub saved 0 (String.length saved - 5)));
      log := [];
      let resumed = render (counted_cells log) ~resume:true ~checkpoint:path () in
      Alcotest.(check (list string)) "only the torn cell reran" [ "c" ] !log;
      check_string "byte-identical output" full resumed;
      (* The rerun's record superseded the torn one: a further resume
         replays everything verbatim. *)
      log := [];
      let again = render (counted_cells log) ~resume:true ~checkpoint:path () in
      check_int "nothing reran" 0 (List.length !log);
      check_string "still byte-identical" full again)

let test_axis_parsers () =
  Alcotest.(check (list int)) "ints" [ 1; 2; 8 ] (Harness.Sweep.int_axis "1,2,8");
  Alcotest.(check (list string)) "strings" [ "ael"; "greedy" ]
    (Harness.Sweep.string_axis " ael, greedy ,");
  Alcotest.check_raises "bad int"
    (Invalid_argument "Sweep.int_axis: not an integer: x (flag -t)") (fun () ->
      ignore (Harness.Sweep.int_axis ~flag:"-t" "1,x"))

let test_axis_rejects_empty () =
  (* An empty axis used to silently produce a zero-cell sweep; it must
     fail loudly, naming the flag the user has to fix. *)
  Alcotest.check_raises "empty int axis"
    (Invalid_argument "Sweep.int_axis: empty axis (flag -t)") (fun () ->
      ignore (Harness.Sweep.int_axis ~flag:"-t" ""));
  Alcotest.check_raises "blank-only int axis"
    (Invalid_argument "Sweep.int_axis: empty axis (flag -k)") (fun () ->
      ignore (Harness.Sweep.int_axis ~flag:"-k" " , ,"));
  Alcotest.check_raises "empty string axis"
    (Invalid_argument "Sweep.string_axis: empty axis (flag --algo)") (fun () ->
      ignore (Harness.Sweep.string_axis ~flag:"--algo" "  ,  "));
  Alcotest.check_raises "flagless caller still errors"
    (Invalid_argument "Sweep.int_axis: empty axis") (fun () ->
      ignore (Harness.Sweep.int_axis ""))

(* ------------------------- parallel sweep -------------------------- *)

(* A parallel sweep runs on worker processes; the in-process sweep is
   the reference it must match.  Nothing in this executable spawns a
   domain before these tests (the backoff group, which does, runs
   last), so they may fork.

   Ten cells with deliberately uneven, reverse-sorted costs: the first
   cells finish last, so on several workers the completion order
   differs from the cell order and the completion buffer actually has
   to reorder. *)
let uneven_cells ?(broken = []) () =
  List.init 10 (fun i ->
      let key = Printf.sprintf "cell%02d" i in
      {
        Harness.Sweep.key;
        run =
          (fun () ->
            let spin = (10 - i) * 20_000 in
            let acc = ref 0 in
            for j = 1 to spin do
              acc := (!acc + j) land 0xFFFF
            done;
            if List.mem i broken then failwith ("boom " ^ key);
            Printf.sprintf "%s -> %d\nsecond line of %s" key !acc key);
      })

let checkpoint_records path =
  (* Order-insensitive view of a checkpoint: the set of key/result
     records.  Parallel appends land in completion order, so equivalent
     checkpoints are equal as sets, not as bytes. *)
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.sort compare

let test_parallel_matches_sequential () =
  with_temp_checkpoint (fun p1 ->
      with_temp_checkpoint (fun p4 ->
          let seq = render (uneven_cells ()) ~checkpoint:p1 () in
          let par =
            render (uneven_cells ()) ~jobs:4 ~isolation:`Process ~checkpoint:p4 ()
          in
          check_string "stdout identical at jobs=1 vs jobs=4" seq par;
          Alcotest.(check (list string))
            "checkpoints equivalent (same record set)" (checkpoint_records p1)
            (checkpoint_records p4)))

let test_parallel_crashed_cell_degrades_alone () =
  let broken = [ 4 ] in
  let seq = render (uneven_cells ~broken ()) () in
  let par = render (uneven_cells ~broken ()) ~jobs:3 ~isolation:`Process () in
  check_string "ERROR cell identical at any jobs count" seq par;
  check_bool "the error is recorded in place" true
    (let lines = String.split_on_char '\n' par in
     List.exists (fun l -> l = "ERROR: Failure(\"boom cell04\")") lines)

let test_parallel_resume_across_jobs_counts () =
  (* Kill-and-resume must replay byte-identically regardless of the
     jobs count used on either side of the kill. *)
  with_temp_checkpoint (fun path ->
      let full =
        render (uneven_cells ()) ~jobs:4 ~isolation:`Process ~checkpoint:path ()
      in
      (* Simulate a kill: drop the last two checkpoint records (whatever
         completion order they were appended in). *)
      let kept =
        let lines = checkpoint_records path in
        List.filteri (fun i _ -> i < List.length lines - 2) lines
      in
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) kept);
      let resumed_seq =
        render (uneven_cells ()) ~resume:true ~checkpoint:path ()
      in
      check_string "jobs=4 run resumed at jobs=1" full resumed_seq;
      (* And back: tear it again, resume at a third jobs count. *)
      Out_channel.with_open_text path (fun oc ->
          List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) kept);
      let resumed_par =
        render (uneven_cells ()) ~resume:true ~jobs:2 ~isolation:`Process
          ~checkpoint:path ()
      in
      check_string "jobs=4 run resumed at jobs=2" full resumed_par)

let test_parallel_fatal_aborts_sweep () =
  (* A fatal exception (here Stack_overflow) in an in-process cell must
     abort the whole sweep — re-raised, whatever [jobs] says — never be
     recorded as a cell result.  (A worker process contains it as that
     cell's ERROR instead: test_supervisor.) *)
  with_temp_checkpoint (fun path ->
      let cells =
        List.init 6 (fun i ->
            let key = Printf.sprintf "c%d" i in
            {
              Harness.Sweep.key;
              run =
                (fun () ->
                  if i = 2 then raise Stack_overflow else "ok " ^ key);
            })
      in
      Alcotest.check_raises "stack overflow reaches the caller"
        Stack_overflow (fun () ->
          ignore (render cells ~jobs:3 ~checkpoint:path ()));
      check_bool "no fatal cell in the checkpoint" true
        (List.for_all
           (fun l -> not (String.length l >= 2 && String.sub l 0 2 = "c2"))
           (checkpoint_records path)))

let test_parallel_interrupted_cell_propagates () =
  (* A cell raising Sweep.Interrupted directly is honored in-process
     whatever [jobs] says. *)
  let cells =
    List.init 4 (fun i ->
        {
          Harness.Sweep.key = Printf.sprintf "i%d" i;
          run =
            (fun () ->
              if i = 1 then raise Harness.Sweep.Interrupted else "ok");
        })
  in
  Alcotest.check_raises "Interrupted surfaces" Harness.Sweep.Interrupted
    (fun () -> ignore (render cells ~jobs:2 ()))

let test_parallel_guarded_games_deterministic () =
  (* Whole guarded games on worker processes: the E7 fault matrix re-run
     on 4 workers must pin the exact same rows as in-process — Guard's
     ambient state and the fault combinators carry nothing from one cell
     to the next on a warm worker. *)
  let cells_of () =
    List.map
      (fun (game, n, base) ->
        List.map
          (fun (fault, inject) ->
            {
              Harness.Sweep.key = game ^ "/" ^ fault;
              run =
                (fun () ->
                  let g = Option.get (Game.find game) in
                  let v =
                    g.Game.play
                      ~limits:
                        {
                          Harness.Guard.max_color_calls = Some 200_000;
                          max_work = Some 100_000;
                          deadline = Some 10.0;
                        }
                      ~n
                      (inject (base ()))
                  in
                  Game.outcome_label v.Game.outcome);
            })
          (("none", fun algo -> algo) :: Harness.Faults.algorithm_faults))
      [
        ("thm1-grid", 30, fun () -> Portfolio.ael ~t:1 ());
        ("thm2-torus", 13, fun () -> Portfolio.greedy ());
        ("thm3-gadgets", 9, fun () -> Portfolio.gadget_rows ());
      ]
    |> List.concat
  in
  let seq = render (cells_of ()) () in
  let par = render (cells_of ()) ~jobs:4 ~isolation:`Process () in
  check_string "fault sub-matrix identical on 4 worker processes" seq par

(* ----------------------------- backoff ----------------------------- *)

(* Property coverage for the one retry schedule everything shares
   (supervisor and client): the delay for (config, key,
   attempt) is a pure function of its arguments — byte-equal across
   domains — and always lands in [envelope, 2*envelope) where envelope
   is the capped exponential term.  That bound is what makes the cap a
   real ceiling: no jitter draw can push a delay past 2*max. *)

let backoff_case_gen =
  Proptest.Gen.(
    map3
      (fun (base_ms, span_ms) seed (key_n, attempt) ->
        let base = float_of_int base_ms /. 1000. in
        let cap = base +. (float_of_int span_ms /. 1000.) in
        ( { Harness.Backoff.base; max = cap; seed },
          Printf.sprintf "cell t=%d" key_n,
          attempt ))
      (pair (int_range 1 100) (int_range 0 2000))
      (int_range 0 1_000_000)
      (pair (int_range 0 50) (int_range 1 60)))

let print_backoff_case ({ Harness.Backoff.base; max; seed }, key, attempt) =
  Printf.sprintf "base=%g max=%g seed=%d key=%S attempt=%d" base max seed key
    attempt

let backoff_envelope (cfg : Harness.Backoff.config) attempt =
  Float.min (cfg.Harness.Backoff.base *. (2. ** float_of_int (attempt - 1)))
    cfg.Harness.Backoff.max

let backoff_proptest name prop =
  Alcotest.test_case name `Quick (fun () ->
      Proptest.Runner.check_exn
        ~config:{ Proptest.Runner.default_config with seed = 0xBAC0FF; cases = 200 }
        ~name ~print:print_backoff_case backoff_case_gen prop)

let prop_backoff_bounded_by_cap =
  backoff_proptest "delay within [envelope, 2*envelope)"
    (fun (cfg, key, attempt) ->
      let d = Harness.Backoff.delay cfg ~key ~attempt in
      let env = backoff_envelope cfg attempt in
      d >= env && d < 2. *. env +. 1e-12)

let prop_backoff_deterministic_across_domains =
  backoff_proptest "fixed seed replays across domains"
    (fun (cfg, key, attempt) ->
      let here = Harness.Backoff.delay cfg ~key ~attempt in
      let spawned =
        List.init 2 (fun _ ->
            Domain.spawn (fun () -> Harness.Backoff.delay cfg ~key ~attempt))
        |> List.map Domain.join
      in
      List.for_all (fun d -> Float.equal d here) spawned)

let prop_backoff_envelope_monotone =
  backoff_proptest "envelope monotone in attempt up to the cap"
    (fun (cfg, key, attempt) ->
      (* jitter aside, the exponential term never decreases with the
         attempt number and never exceeds the cap *)
      ignore key;
      let e1 = backoff_envelope cfg attempt in
      let e2 = backoff_envelope cfg (attempt + 1) in
      e2 >= e1 && e2 <= cfg.Harness.Backoff.max)

let () =
  Alcotest.run "harness"
    [
      ( "guard",
        [
          Alcotest.test_case "work budget stops spin" `Quick test_work_budget_stops_spin;
          Alcotest.test_case "color-call budget" `Quick test_color_call_budget;
          Alcotest.test_case "deadline" `Quick test_deadline_exceeded;
          Alcotest.test_case "fatal exceptions propagate" `Quick
            test_fatal_exceptions_propagate;
          Alcotest.test_case "poisoned after fault" `Quick test_poisoned_after_first_fault;
          Alcotest.test_case "instantiate failure" `Quick test_instantiate_failure_poisons;
          Alcotest.test_case "capture" `Quick test_capture_classifies;
          Alcotest.test_case "tick without guard" `Quick test_tick_without_guard_is_noop;
        ] );
      ( "faults",
        [
          Alcotest.test_case "wrong-color alternates" `Quick test_wrong_color_alternates;
          Alcotest.test_case "out-of-palette default" `Quick
            test_out_of_palette_default_color;
          Alcotest.test_case "amnesia reinstantiates" `Quick test_amnesia_reinstantiates;
          Alcotest.test_case "wrappers rename" `Quick test_fault_wrappers_rename;
          Alcotest.test_case "chaos oracle" `Quick test_chaos_oracle_corrupts;
          Alcotest.test_case "chaos oracle copies" `Quick
            test_chaos_oracle_preserves_shared_buffer;
        ] );
      ( "classification",
        [
          Alcotest.test_case "dishonest transcript" `Quick test_rigged_dishonest_transcript;
          Alcotest.test_case "audit-like message stays raised" `Quick
            test_audit_like_message_stays_raised;
          Alcotest.test_case "repeated presentation" `Quick
            test_rigged_repeated_presentation;
          Alcotest.test_case "adversary crash" `Quick test_rigged_adversary_crash;
          Alcotest.test_case "paranoid thm1" `Quick test_paranoid_thm1_stays_defeated;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "fault matrix pinned" `Slow test_fault_matrix;
        ] );
      ( "misbehavior",
        [ Alcotest.test_case "pp pinned" `Quick test_misbehavior_pp_pinned ] );
      ( "sweep",
        [
          Alcotest.test_case "resume byte-identical" `Quick test_sweep_resume_byte_identical;
          Alcotest.test_case "crashed cell continues" `Quick
            test_sweep_crashed_cell_continues;
          Alcotest.test_case "duplicate keys" `Quick test_sweep_duplicate_keys_rejected;
          Alcotest.test_case "interrupt preserves checkpoint" `Quick
            test_sweep_interrupt_preserves_checkpoint;
          Alcotest.test_case "break mid-cell not recorded" `Quick
            test_sweep_break_mid_cell_not_recorded;
          Alcotest.test_case "torn record reruns" `Quick test_sweep_torn_record_reruns;
          Alcotest.test_case "axis parsers" `Quick test_axis_parsers;
          Alcotest.test_case "axis rejects empty" `Quick test_axis_rejects_empty;
        ] );
      ( "parallel-sweep",
        [
          Alcotest.test_case "jobs=4 matches jobs=1" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "crashed cell degrades alone" `Quick
            test_parallel_crashed_cell_degrades_alone;
          Alcotest.test_case "resume across jobs counts" `Quick
            test_parallel_resume_across_jobs_counts;
          Alcotest.test_case "fatal aborts sweep" `Quick
            test_parallel_fatal_aborts_sweep;
          Alcotest.test_case "Interrupted propagates" `Quick
            test_parallel_interrupted_cell_propagates;
          Alcotest.test_case "guarded games deterministic" `Slow
            test_parallel_guarded_games_deterministic;
        ] );
      ( "backoff",
        [
          prop_backoff_bounded_by_cap;
          prop_backoff_deterministic_across_domains;
          prop_backoff_envelope_monotone;
        ] );
    ]
