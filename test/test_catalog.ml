(* Goldens for the job-kind catalog: the payload encodings are wire
   format (serve.exe clients pin them), and a catalog-dispatched job
   must produce byte-identical output to the local sweep cell it
   mirrors — that equality is the server determinism contract. *)

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module Verdict = Online_local.Verdict

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* Pinned payloads: these strings travel over the socket.  Changing a
   cell key format is a wire-protocol break, not a cosmetic edit. *)
let test_pinned_keys () =
  let c1 =
    Jobs_catalog.thm1_cell ~validate:false ~t:2 ~k:7 ~side:120
      ~algo:"greedy" ()
  in
  check_string "thm1 key" "t=2 k=7 side=120 algo=greedy" c1.Harness.Sweep.key;
  let c2 = Jobs_catalog.thm2_cell ~side:9 ~wrap:"torus" ~algo:"greedy" () in
  check_string "thm2 key" "wrap=torus side=9 algo=greedy" c2.Harness.Sweep.key;
  let c3 = Jobs_catalog.thm3_cell ~k:3 ~gadgets:4 ~algo:"greedy" () in
  check_string "thm3 key" "k=3 gadgets=4 algo=greedy" c3.Harness.Sweep.key

(* A job whose payload is a sweep cell's key produces the cell's exact
   result string — for every kind, through the public handler. *)
let test_catalog_matches_sweep_cells () =
  let pairs =
    [
      ( "thm1",
        Jobs_catalog.thm1_cell ~validate:false ~t:1 ~k:5 ~side:60
          ~algo:"greedy" () );
      ( "thm1",
        Jobs_catalog.thm1_cell ~validate:false ~t:2 ~k:6 ~side:60
          ~algo:"ael" () );
      ("thm2", Jobs_catalog.thm2_cell ~side:9 ~wrap:"torus" ~algo:"greedy" ());
      ( "thm2",
        Jobs_catalog.thm2_cell ~side:7 ~wrap:"cylinder" ~algo:"greedy" () );
      ("thm3", Jobs_catalog.thm3_cell ~k:3 ~gadgets:4 ~algo:"gadget-rows" ());
    ]
  in
  List.iter
    (fun (kind, cell) ->
      let local = cell.Harness.Sweep.run () in
      let dispatched =
        Jobs_catalog.handler ~kind ~payload:cell.Harness.Sweep.key
      in
      check_string (kind ^ " " ^ cell.Harness.Sweep.key) local dispatched)
    pairs

let render ?(jobs = 1) ?isolation cells =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Harness.Sweep.run ~jobs ?isolation ~ppf cells;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* The E1-style grid the game cache is built for: greedy and stripes
   ignore t, so their t = 2, 3 cells replay the t = 1 game; ael's radius
   moves with t and never hits. *)
let grid =
  List.concat_map
    (fun t -> List.map (fun algo -> (t, algo)) [ "greedy"; "stripes"; "ael" ])
    [ 1; 2; 3 ]

let cached_cells () =
  List.map
    (fun (t, algo) -> Jobs_catalog.thm1_cell ~validate:false ~t ~k:5 ~side:60 ~algo ())
    grid

let game_hits path =
  List.length
    (List.filter
       (fun r ->
         match r.Obs.Trace.ev with
         | Obs.Trace.Canon_hit { kind = "game"; _ } -> true
         | _ -> false)
       (Obs.Trace.read_file path))

let with_trace f =
  let path = Filename.temp_file "test_catalog" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> f path)

let with_stats f =
  Obs.Stats.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Stats.disable ();
      Obs.Stats.reset ())
    f

(* The game cache is an execution strategy, not semantics: every cell
   of the grid through the sweep's cached [thm1_cell] yields the text
   and the Stats delta of the same key through the live [thm1_run], and
   the cached pass, started cold, does hit.  The cached grid on 4 cold
   worker processes prints the live bytes too. *)
let test_cell_variants_agree () =
  with_stats @@ fun () ->
  Hashtbl.reset Jobs_catalog.thm1_reports;
  let live =
    List.map
      (fun (t, algo) ->
        Obs.Stats.scoped (Jobs_catalog.thm1_run ~validate:false ~t ~k:5 ~side:60 ~algo))
      grid
  in
  with_trace (fun path ->
      let cached =
        Obs.Trace.with_sink ~program:"test_catalog" ~path (fun () ->
            List.map (fun c -> Obs.Stats.scoped c.Harness.Sweep.run) (cached_cells ()))
      in
      List.iter2
        (fun ((t, algo), (live_text, live_delta)) (text, delta) ->
          let label = Printf.sprintf "t=%d %s" t algo in
          check_string (label ^ " text") live_text text;
          check_string (label ^ " stats") live_delta delta)
        (List.combine grid live) cached;
      check_bool "a game cache hit is traced" true (game_hits path > 0));
  (* workers fork from this process: empty the table they inherit *)
  Hashtbl.reset Jobs_catalog.thm1_reports;
  check_string "cached grid on 4 workers"
    (String.concat "" (List.map (fun (text, _) -> text ^ "\n") live))
    (render ~jobs:4 ~isolation:`Process (cached_cells ()))

(* Served jobs run live: two identical thm1 jobs through the handler
   play two games, so a long-lived server worker's memory does not grow
   with its job stream. *)
let test_served_jobs_live () =
  with_trace (fun path ->
      Obs.Trace.with_sink ~program:"test_catalog" ~path (fun () ->
          for _ = 1 to 2 do
            ignore
              (Jobs_catalog.handler ~kind:"thm1" ~payload:"t=1 k=5 side=60 algo=greedy")
          done);
      check_int "no game cache hit" 0 (game_hits path))

(* Pinned result prefix: the report layout itself is part of what the
   server replays to historical clients. *)
let test_pinned_result_shape () =
  let out = Jobs_catalog.handler ~kind:"thm1" ~payload:"t=1 k=5 side=60 algo=greedy" in
  let has needle =
    let nl = String.length needle and hl = String.length out in
    let rec go i =
      i + nl <= hl && (String.sub out i nl = needle || go (i + 1))
    in
    go 0
  in
  check_bool "header" true (has "thm1 vs greedy (T=1) on 60^2 grid, b-target k=5:");
  check_bool "theory line" true (has "guaranteed by theory: false (needs k > 4T+4)")

(* Fuzz jobs: the payload format and the one-line PASS report are both
   pinned (the report must match bin/fuzz.exe's status line). *)
let test_fuzz_payload () =
  check_string "pinned pass line" "wire-codec: PASS (50 cases)"
    (Jobs_catalog.handler ~kind:"fuzz" ~payload:"target=wire-codec seed=42 cases=50");
  let raises f = match f () with exception _ -> true | _ -> false in
  check_bool "unknown target" true
    (raises (fun () ->
         Jobs_catalog.handler ~kind:"fuzz" ~payload:"target=zeta seed=1 cases=1"))

let test_bad_inputs_raise () =
  let raises f = match f () with exception _ -> true | _ -> false in
  check_bool "unknown kind" true
    (raises (fun () -> Jobs_catalog.handler ~kind:"thm9" ~payload:"x"));
  check_bool "bad payload" true
    (raises (fun () -> Jobs_catalog.handler ~kind:"thm1" ~payload:"garbage"));
  check_bool "unknown algo" true
    (raises (fun () ->
         Jobs_catalog.handler ~kind:"thm1" ~payload:"t=1 k=5 side=60 algo=zeta"));
  check_bool "kinds listed" true (List.mem "thm1" Jobs_catalog.kinds)

(* A game whose --validate audit fails: the thm1 path (live and cached
   both format through thm1_text) prints the adversary fault as the
   cell's result line, where the report would be; any other exception
   still escapes to the sweep's ERROR line. *)
let test_dishonest_transcript_line () =
  let message = "validate: step 3's ball misses cell (3,1)" in
  check_string "fault line"
    "thm1 vs ael (T=3) on 30000^2 grid, b-target k=9:\n\
    \  ADVERSARY-FAULT (dishonest-transcript): validate: step 3's ball misses cell (3,1)\n\
    \  guaranteed by theory: false (needs k > 4T+4)\n\
    \  max fitting k at this side/T: 11"
    (Jobs_catalog.thm1_text ~t:3 ~k:9 ~side:30000 ~algo:"ael" (fun () ->
         raise (Models.Run_stats.Dishonest_transcript message)));
  check_bool "other exceptions escape" true
    (match Jobs_catalog.thm1_text ~t:3 ~k:9 ~side:30000 ~algo:"ael" (fun () -> failwith "bug")
     with
    | _ -> false
    | exception Failure _ -> true)

(* One game, three routes, one verdict: thm2 on the side-21 torus as
   play classifies it (Game), as Verdict classifies the catalog's own
   report, and as E2's quick table prints it, where an algorithm fault
   is abbreviated to ALG-FAULT.  The catalog's cell text still prints
   the raw result, DEFEATED, for an algorithm that raised: the one
   legacy mapping left.  Both the served
   line and the Game route name the node and step where AEL raised. *)
let test_one_verdict_across_routes () =
  let e2_rows =
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    Experiments.e2_torus_lower_bound ~quick:true ppf;
    Format.pp_print_flush ppf ();
    List.map
      (fun line -> List.filter (( <> ) "") (String.split_on_char ' ' line))
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  let e2_result name =
    match
      List.find_map
        (function
          | "torus" :: "21" :: n :: _ :: result :: _ when n = name -> Some result
          | _ -> None)
        e2_rows
    with
    | Some result -> result
    | None -> Alcotest.failf "E2 prints no torus 21 row for %s" name
  in
  List.iter
    (fun (algo, e2_name, want) ->
      let make = List.assoc algo Jobs_catalog.thm2_algorithms in
      let game = Online_local.Game.thm2_torus.Online_local.Game.play ~n:21 (make ()) in
      let report =
        Online_local.Thm2_adversary.run ~wrap:`Toroidal ~side:21 ~algorithm:(make ()) ()
      in
      let catalog = Verdict.classify None (Ok report.Online_local.Thm2_adversary.result) in
      check_string (algo ^ " via Game") want (Verdict.label game.Verdict.outcome);
      check_string (algo ^ " via the catalog's report") want (Verdict.label catalog);
      check_string (algo ^ " via E2")
        (match catalog with Verdict.Algorithm_fault _ -> "ALG-FAULT" | o -> Verdict.label o)
        (e2_result e2_name))
    [ ("greedy", "greedy", "DEFEATED"); ("ael(T=1)", "ael-T1", "ALGORITHM-FAULT (raised)") ];
  let served =
    Jobs_catalog.handler ~kind:"thm2" ~payload:"wrap=torus side=21 algo=ael(T=1)"
  in
  check_bool "the served line keeps the raw result" true
    (contains ~needle:"result=DEFEATED (algorithm raised on node 39" served);
  let game =
    Online_local.Game.thm2_torus.Online_local.Game.play ~n:21
      (Online_local.Portfolio.ael ~t:1 ())
  in
  List.iter
    (fun needle ->
      check_bool ("served and Game both name " ^ needle) true
        (contains ~needle served && contains ~needle game.Verdict.detail))
    [ "raised on node 39"; "presented=19" ]

let () =
  Alcotest.run "catalog"
    [
      ( "goldens",
        [
          Alcotest.test_case "pinned cell keys" `Quick test_pinned_keys;
          Alcotest.test_case "catalog = sweep cells" `Quick
            test_catalog_matches_sweep_cells;
          Alcotest.test_case "memo variants agree" `Quick
            test_cell_variants_agree;
          Alcotest.test_case "served thm1 jobs run live" `Quick
            test_served_jobs_live;
          Alcotest.test_case "pinned result shape" `Quick
            test_pinned_result_shape;
          Alcotest.test_case "fuzz payload" `Quick test_fuzz_payload;
          Alcotest.test_case "bad inputs raise" `Quick test_bad_inputs_raise;
          Alcotest.test_case "dishonest transcript is a result line" `Quick
            test_dishonest_transcript_line;
          Alcotest.test_case "one verdict across routes" `Quick
            test_one_verdict_across_routes;
        ] );
    ]
