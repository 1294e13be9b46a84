(* The layered benchmark: four seeded workloads over the shipped
   binaries, plus a traced in-process replay that splits their time by
   layer.  See README.md in this directory.

     suite.exe --workload W --seed N --seconds S --trace 0|1
     suite.exe run   [--seed N] [--seconds S]   all workloads, untraced
     suite.exe trace [--seed N] [--seconds S]   all workloads, traced
     suite.exe selftest                         seeded inputs + helpers
     suite.exe smoke                            every workload at 1 s

   The single-workload form ends its standard output with one JSON
   object: with --trace 0 the end-to-end metrics of BENCHMARK.json,
   with --trace 1 its per-layer metrics. *)

let setup_probes = 21

(* ------------------------------ one run ------------------------------ *)

type run_result = {
  wall : float;
  user : float;
  sys : float;
  peak_kb : int;
  outputs : (string * bool) list;
      (** stdout and clean exit of each process, in run order *)
}

let read_file path = In_channel.with_open_bin path In_channel.input_all
let since t0 = Spans.seconds_of_ns (Spans.now_ns () - t0)

let run_process bin args =
  let out = Proc.work_file "stdout" in
  let pid =
    Proc.spawn ~stdout:(File out) ~stderr:(File (Proc.work_file "stderr")) bin args
  in
  let st, peak = Proc.guarded pid (fun pid -> Proc.wait_polling [ pid ]) in
  (read_file out, Proc.exited_ok (List.hd st), peak)

let invocations = function
  | Inputs.Sweeps ss -> List.map (fun (s : Inputs.sweep) -> (s.bin, s.args)) ss
  | Exhaust side -> [ ("exhaust", [ "-k"; "1,2"; "--side"; string_of_int side ]) ]
  | Served _ -> []

let run_batch invocations =
  let u0, s0 = Proc.children_cpu () in
  let t0 = Spans.now_ns () in
  let results = List.map (fun (bin, args) -> run_process bin args) invocations in
  let wall = since t0 in
  let u1, s1 = Proc.children_cpu () in
  {
    wall;
    user = u1 -. u0;
    sys = s1 -. s0;
    peak_kb = List.fold_left (fun m (_, _, p) -> max m p) 0 results;
    outputs = List.map (fun (o, ok, _) -> (o, ok)) results;
  }

(* A fresh server per run: it dedups finished job ids, so a reused one
   would answer a repeated campaign from its cache. *)
let run_served ~job_file =
  let socket = Proc.socket () in
  let pid, _ = Proc.start_server ~socket in
  let u0, s0, wall, peak, stdout, ok =
    Proc.guarded_server pid @@ fun pid ->
    let u0, s0 = Proc.children_cpu () in
    let out = Proc.work_file "stdout" in
    let t0 = Spans.now_ns () in
    let sub =
      Proc.spawn ~stdout:(File out) ~stderr:(File (Proc.work_file "stderr")) "submit"
        [ "--socket"; socket; "--from"; job_file ]
    in
    let st, peak = Proc.guarded sub (fun sub -> Proc.wait_polling ~watch:[ pid ] [ sub ]) in
    let wall = since t0 in
    (u0, s0, wall, peak, read_file out, Proc.exited_ok (List.hd st))
  in
  let drained = Proc.stop_server pid in
  let u1, s1 = Proc.children_cpu () in
  { wall; user = u1 -. u0; sys = s1 -. s0; peak_kb = peak; outputs = [ (stdout, ok && drained) ] }

(* Set-up time: spawn until ready.  A batch binary is ready when
   [--help=plain] has exited (summed over the workload's binaries); the
   server when it answers a health probe.  An idle server has
   no workers, so it is killed outright rather than drained (a drain
   waits out a 250 ms select timeout). *)
let setup_once = function
  | Inputs.Served _ ->
      let pid, ready = Proc.start_server ~socket:(Proc.socket ()) in
      Proc.kill_and_reap pid;
      ready
  | inputs ->
      List.fold_left
        (fun acc (bin, _) -> acc +. Proc.time_exit bin [ "--help=plain" ])
        0. (invocations inputs)

(* One set-up probe: the fastest of three set-ups back to back.  A
   set-up takes a few milliseconds, no longer than the scheduling
   hiccups of a shared host, so a single one would measure a hiccup as
   often as the set-up. *)
let setup_probe inputs = List.fold_left min infinity (List.init 3 (fun _ -> setup_once inputs))

(* ------------------------------ oracle ------------------------------ *)

let all_cells = function
  | Inputs.Sweeps ss -> List.concat_map (fun (s : Inputs.sweep) -> s.cells) ss
  | Served cells -> cells
  | Exhaust _ -> []

(* Jobs_catalog.handler on every cell through Harness.Sweep.run: the
   per-cell results, per-cell busy nanoseconds, and the wall. *)
let catalog ~jobs cells =
  let cells = Array.of_list cells in
  let n = Array.length cells in
  let results = Array.make n "" and busy = Array.make n 0 in
  let sweep_cells =
    Array.to_list
      (Array.mapi
         (fun i c ->
           {
             Harness.Sweep.key = Inputs.key c;
             run =
               (fun () ->
                 let t0 = Spans.now_ns () in
                 let r = Jobs_catalog.handler ~kind:(Inputs.kind c) ~payload:(Inputs.payload c) in
                 busy.(i) <- Spans.now_ns () - t0;
                 results.(i) <- r;
                 r);
           })
         cells)
  in
  let ppf = Format.formatter_of_buffer (Buffer.create 256) in
  (* every in-process pass starts from a collected heap, so none pays
     for the garbage of the one before *)
  Gc.full_major ();
  let t0 = Spans.now_ns () in
  Harness.Sweep.run ~jobs ~ppf sweep_cells;
  (results, busy, since t0)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* What the paper guarantees, read off a result: a thm1 cell the theory
   guarantees, or a thm2/thm3 cell whose preconditions hold, is
   DEFEATED; a fuzz job passes. *)
let semantic_ok (c : Inputs.cell) r =
  match c with
  | Thm1 _ -> (not (contains r "guaranteed by theory: true")) || contains r "result=DEFEATED"
  | Thm2 _ | Thm3 _ -> (not (contains r "preconditions=true")) || contains r "result=DEFEATED"
  | Fuzz { target; _ } -> String.starts_with ~prefix:(target ^ ": PASS") r

(* Cells whose expected result is not at its place in [stdout].  Past a
   mismatch nothing can be attributed, so every later cell counts. *)
let mismatches ~stdout expected =
  let n = String.length stdout in
  let rec go pos = function
    | [] -> if pos = n then 0 else 1
    | e :: rest ->
        let m = String.length e + 1 in
        if pos + m <= n && String.sub stdout pos m = e ^ "\n" then go (pos + m) rest
        else 1 + List.length rest
  in
  go 0 expected

let check_cells ~expected cells (stdout, ok) =
  let n = List.length cells in
  if not ok then (n, n)
  else
    let exp = List.map (fun c -> Hashtbl.find expected (Inputs.key c)) cells in
    let wrong =
      List.length (List.filter (fun (c, r) -> not (semantic_ok c r)) (List.combine cells exp))
    in
    (n, min n (mismatches ~stdout exp + wrong))

(* Per k: (canonical leaves, naive leaves) and the survivor counts. *)
let parse_exhaust stdout =
  let lines = String.split_on_char '\n' stdout in
  let scan fmt f =
    List.filter_map
      (fun l ->
        match Scanf.sscanf l fmt f with
        | v -> Some v
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> None)
      lines
  in
  let canon = scan " strategies (canonical): %d" Fun.id
  and naive = scan " strategies (naive): %d" Fun.id
  and survivors = scan " survivors: %d canonical + %d naive" (fun a b -> a + b) in
  if List.length canon = 2 && List.length naive = 2 && List.length survivors = 2 then
    Some (List.combine canon naive, survivors)
  else None

let leaves counts = List.fold_left (fun acc (c, n) -> acc + c + n) 0 counts

(* [reference] holds the leaf counts of the first exhaust invocation:
   every side must give the same. *)
let check_exhaust ~reference (stdout, ok) =
  match (parse_exhaust stdout, !reference) with
  | Some (counts, survivors), ref_counts ->
      let ref_counts = Option.value ref_counts ~default:counts in
      reference := Some ref_counts;
      let good = ok && counts = ref_counts && List.for_all (( = ) 0) survivors in
      let n = leaves counts in
      (n, if good then 0 else n)
  | None, Some counts -> (leaves counts, leaves counts)
  | None, None -> (1, 1)

(* (units, failed units) of one run of the binaries. *)
let check_run ~expected ~reference inputs r =
  let add (a, f) (a', f') = (a + a', f + f') in
  match inputs with
  | Inputs.Sweeps ss ->
      List.fold_left2
        (fun acc (s : Inputs.sweep) out -> add acc (check_cells ~expected s.cells out))
        (0, 0) ss r.outputs
  | Served cells -> check_cells ~expected cells (List.hd r.outputs)
  | Exhaust _ ->
      List.fold_left (fun acc out -> add acc (check_exhaust ~reference out)) (0, 0) r.outputs

(* ----------------------------- sessions ----------------------------- *)

type session = {
  workload : string;
  seed : int;
  seconds : float;
  inputs : Inputs.run list;  (** what each run executes, warm-up first *)
  job_file : string;
  mutable setup : (float * float) list;
      (** each probe's seconds, and the host's slowdown then *)
  mutable runs : run_result list;  (** in run order, warm-up first *)
  mutable slowdowns : float list;  (** the host's slowdown during each run *)
}

let prepare ~workload ~seed ~seconds =
  Proc.ensure_work_dir ();
  let inputs = Inputs.make ~workload ~seed ~seconds in
  let job_file = Proc.work_file "jobs" in
  (match List.hd inputs with
  | Served cells ->
      Out_channel.with_open_bin job_file (fun oc ->
          Out_channel.output_string oc (Inputs.job_file cells))
  | _ -> ());
  { workload; seed; seconds; inputs; job_file; setup = []; runs = []; slowdowns = [] }

let run_session s =
  let r =
    match List.nth s.inputs (List.length s.runs) with
    | Served _ -> run_served ~job_file:s.job_file
    | inputs -> run_batch (invocations inputs)
  in
  s.runs <- s.runs @ [ r ]

(* How much slower than the reference the host runs now (Calib). *)
let slowdown s =
  let domains = Inputs.domains s.workload in
  Calib.measure ~domains /. Calib.reference_s

(* [n] set-up probes, then a calibration, which scales them.  Returns
   the slowdown it measured. *)
let probe s n =
  let times = List.init n (fun _ -> setup_probe (List.hd s.inputs)) in
  let f = slowdown s in
  s.setup <- s.setup @ List.map (fun t -> (t, f)) times;
  f

(* The next run, preceded by its share of the set-up probes and framed
   by two calibrations; the run's slowdown is their mean.  Spreading
   the probes over the invocation keeps one burst of interference from
   landing on all of them.  Returns the seconds it all took. *)
let probe_and_run s =
  let t0 = Spans.now_ns () in
  let runs = Inputs.expected_runs ~workload:s.workload ~seconds:s.seconds in
  Calib.on_cpus ~domains:(Inputs.domains s.workload) (fun () ->
      let before = probe s (max 2 ((setup_probes + runs - 1) / runs)) in
      run_session s;
      let after = slowdown s in
      s.slowdowns <- s.slowdowns @ [ (before +. after) /. 2. ]);
  since t0

(* Runs of one session until its time is spent: at least four (a
   warm-up and three timed runs), then only while the time spent so far
   plus the last run's length stays within [seconds].  The inputs of
   each run are fixed by the seed; only how many are made depends on
   the clock.  Probes that the runs left short are made at the end. *)
let measure sessions =
  let spent = List.map (fun s -> (s, ref 0., ref 0.)) sessions in
  let more (s, total, last) =
    let n = List.length s.runs in
    n < List.length s.inputs && (n < 4 || !total +. !last <= s.seconds)
  in
  (* each round makes the next run of every session that has one, in
     an order rotated by one every round *)
  let k = List.length spent in
  let round = ref 0 in
  while List.exists more spent do
    List.iteri
      (fun i _ ->
        let ((s, total, last) as e) = List.nth spent ((i + !round) mod k) in
        if more e then begin
          last := probe_and_run s;
          total := !total +. !last
        end)
      spent;
    incr round
  done;
  List.iter
    (fun s ->
      let n = setup_probes - List.length s.setup in
      if n > 0 then Calib.on_cpus ~domains:(Inputs.domains s.workload) (fun () -> ignore (probe s n)))
    sessions

(* The handler's result for every cell, by key, at jobs 2. *)
let expected_results inputs =
  let tbl = Hashtbl.create 64 in
  let cells = all_cells inputs in
  let results, _, _ = catalog ~jobs:2 cells in
  List.iteri (fun i c -> Hashtbl.replace tbl (Inputs.key c) results.(i)) cells;
  tbl

let unit_name = function
  | Inputs.Sweeps _ -> "cells"
  | Exhaust _ -> "leaves"
  | Served _ -> "jobs"

(* A metric's value and its samples, one per run or probe.  Times are
   scaled to the reference speed by the slowdown measured around them
   (Calib), which takes out most of the drift of a shared host; the
   unscaled times and the slowdown are printed beside them (README.md). *)
type metric = {
  name : string;
  unit : string;
  stat : string;  (** how [value] comes from [values] *)
  value : float;
  values : float list;
  json : bool;  (** false: printed for people, not in the result line *)
}

(* The end-to-end metrics of a measured session, and (attempted,
   failed) over every run, the warm-up included.  A run's time is its
   raw time over its slowdown; the invocation's is the timed runs'
   total raw time over the total of their slowdowns.  That ratio, a
   slowdown-weighted mean, repeated across seeds better than the median
   of the runs (README.md). *)
let evaluate s =
  let expected =
    match List.hd s.inputs with
    | Exhaust _ -> Hashtbl.create 0
    | inputs -> expected_results inputs
  in
  let reference = ref None in
  let inputs = List.filteri (fun i _ -> i < List.length s.runs) s.inputs in
  let verdicts =
    List.map2 (fun inputs r -> check_run ~expected ~reference inputs r) inputs s.runs
  in
  let attempted = List.fold_left (fun a (n, _) -> a + n) 0 verdicts in
  let failed = List.fold_left (fun a (_, f) -> a + f) 0 verdicts in
  let timed =
    List.tl (List.map2 (fun (r, v) f -> (f, r, v)) (List.combine s.runs verdicts) s.slowdowns)
  in
  let over f = List.map f timed in
  let sum xs = List.fold_left ( +. ) 0. xs in
  let slowdowns = sum (over (fun (f, _, _) -> f)) in
  let scaled raw = sum (over raw) /. slowdowns in
  let wall_s = scaled (fun (_, r, _) -> r.wall) in
  let units = sum (over (fun (_, _, (n, _)) -> float_of_int n)) in
  let median ?(json = true) name unit values =
    { name; unit; stat = "median"; value = Spans.median values; values; json }
  in
  let mean name unit value values = { name; unit; stat = "mean"; value; values; json = true } in
  let metrics =
    [
      median "setup_s" "s" (List.map (fun (t, f) -> t /. f) s.setup);
      mean "wall_s" "s" wall_s (over (fun (f, r, _) -> r.wall /. f));
      mean "units_per_s" "1/s"
        (units /. (wall_s *. float_of_int (List.length timed)))
        (over (fun (f, r, (n, _)) -> float_of_int n /. r.wall *. f));
      mean "cpu_s" "s"
        (scaled (fun (_, r, _) -> r.user +. r.sys))
        (over (fun (f, r, _) -> (r.user +. r.sys) /. f));
      median "peak_rss_mb" "MB" (over (fun (_, r, _) -> float_of_int r.peak_kb /. 1024.));
      median ~json:false "slowdown" "ratio" (over (fun (f, _, _) -> f));
      median ~json:false "raw_setup_s" "s" (List.map fst s.setup);
      median ~json:false "raw_wall_s" "s" (over (fun (_, r, _) -> r.wall));
      median ~json:false "raw_cpu_s" "s" (over (fun (_, r, _) -> r.user +. r.sys));
    ]
  in
  (metrics, attempted, failed)

let print_end_to_end s (metrics, attempted, failed) =
  let runs = List.length s.runs in
  Printf.printf "%s seed=%d seconds=%g: %d %s in 1 warm-up + %d timed runs\n" s.workload s.seed
    s.seconds attempted
    (unit_name (List.hd s.inputs))
    (runs - 1);
  List.iter
    (fun m ->
      let a = Spans.sorted m.values in
      let q1, q3 = Spans.quartiles m.values in
      Printf.printf
        "  %-12s %12.6g %-5s %-6s of n=%d: min %.6g q1 %.6g median %.6g q3 %.6g max %.6g\n"
        m.name m.value m.unit m.stat (Array.length a) a.(0) q1 (Spans.median m.values) q3
        a.(Array.length a - 1))
    metrics;
  Printf.printf "  %-12s %12.6g       (%d of %d failed)\n%!" "failed_frac"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted

let result_json ~attempted ~failed metrics =
  Spans.json_obj
    [
      ("correct", string_of_bool (failed = 0 && attempted > 0));
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ( "metrics",
        Spans.json_obj
          (List.map
             (fun (name, unit, v) ->
               ( name,
                 Spans.json_obj
                   [ ("value", Spans.json_float v); ("unit", Spans.json_string unit) ] ))
             metrics) );
    ]

(* ------------------------------ traced ------------------------------ *)

type row = { rname : string; runit : string; rvalue : float option }

let row rname runit rvalue = { rname; runit; rvalue }

let per_layer_json =
  [
    "adversary.games"; "adversary.steps"; "adversary.self_s"; "adversary.ns_per_step";
    "algorithm.calls"; "algorithm.busy_s"; "algorithm.busy_ns_per_call"; "catalog.self_s";
    "cell.p50_ms"; "cell.tail_ms"; "gc.minor_words_per_step"; "gc.promoted_words_per_step";
    "gc.major_collections"; "proc.user_s"; "proc.sys_s";
    "trace.overhead_frac"; "trace.coverage";
  ]

let ratio a b = if b = 0. then None else Some (a /. b)
let fi = float_of_int

(* Per-layer rows from the spans of the traced replay, and the
   nanoseconds the layers account for: adversary, algorithm (view
   included) and catalog.  A root cell span's own time is no layer's. *)
let layer_rows spans =
  let is_game (s : Spans.span) = List.mem s.name [ "thm1"; "thm2"; "thm3" ] in
  let selfs =
    Spans.self_ns spans ~below:(fun s -> if is_game s then Spans.counter s "color_ns" else 0)
  in
  let total f = List.fold_left (fun acc (s, self) -> acc + f s self) 0 selfs in
  let over p f = total (fun s self -> if p s then f s self else 0) in
  let count name = over is_game (fun s _ -> Spans.counter s name) in
  let games_of p = over (fun s -> is_game s && p s) (fun _ _ -> 1) in
  let catalog_ns = over (fun s -> not (is_game s || s.parent < 0)) (fun _ self -> self) in
  let adversary_ns = over is_game (fun _ self -> self) in
  let color_ns = count "color_ns" and view_ns = count "view_ns" in
  let steps = count "steps" and calls = count "color_calls" and view_calls = count "view_calls" in
  let theorem name =
    let p (s : Spans.span) = s.name = name in
    let games = games_of p in
    let steps = over p (fun s _ -> Spans.counter s "steps") in
    let self = over p (fun _ self -> self) in
    let some x = if games = 0 then None else Some x in
    [
      row (name ^ ".games") "count" (some (fi games));
      row (name ^ ".steps") "count" (some (fi steps));
      row (name ^ ".reveals") "count" (some (fi (over p (fun s _ -> Spans.counter s "reveals"))));
      row (name ^ ".self_s") "s" (some (Spans.seconds_of_ns self));
      row (name ^ ".ns_per_step") "ns" (ratio (fi self) (fi steps));
    ]
  in
  let s_ ns = Some (Spans.seconds_of_ns ns) in
  ( [
      row "adversary.games" "count" (Some (fi (games_of (fun _ -> true))));
      row "adversary.steps" "count" (Some (fi steps));
      row "adversary.self_s" "s" (s_ adversary_ns);
      row "adversary.ns_per_step" "ns" (ratio (fi adversary_ns) (fi steps));
    ]
    @ theorem "thm1" @ theorem "thm2" @ theorem "thm3"
    @ [
      row "algorithm.calls" "count" (Some (fi calls));
      row "algorithm.busy_s" "s" (s_ color_ns);
      row "algorithm.busy_ns_per_call" "ns" (ratio (fi color_ns) (fi calls));
      row "algorithm.self_s" "s" (s_ (color_ns - view_ns));
      row "algorithm.ns_per_call" "ns" (ratio (fi (color_ns - view_ns)) (fi calls));
      row "view.calls" "count" (Some (fi view_calls));
      row "view.self_s" "s" (s_ view_ns);
      row "view.ns_per_call" "ns" (ratio (fi view_ns) (fi view_calls));
      row "catalog.self_s" "s" (s_ catalog_ns);
      row "gc.minor_words_per_step" "words" (ratio (fi (count "minor_words")) (fi steps));
      row "gc.promoted_words_per_step" "words" (ratio (fi (count "promoted_words")) (fi steps));
      row "gc.major_collections" "count" (Some (fi (count "major_collections")));
    ],
    adversary_ns + color_ns + catalog_ns )

let latency_rows prefix ns =
  let a = Spans.sorted (List.map (fun ns -> fi ns /. 1e6) ns) in
  let p, tail = Spans.tail a in
  [
    row (prefix ^ ".count") "count" (Some (fi (Array.length a)));
    row (prefix ^ ".p50_ms") "ms" (Some (Spans.percentile a 50.));
    row (prefix ^ ".tail_ms") "ms" (Some tail);
    row (prefix ^ ".tail_pct") "%" (Some (fi p));
  ]

(* Wire codec cost over this campaign's own frames: one submit frame
   per job and one result frame per answer. *)
let wire_rows specs results =
  let frames =
    List.map (fun (k, p) -> ('S', k ^ "\t" ^ p)) specs @ List.map (fun r -> ('R', r)) results
  in
  let rounds = 20 and n = List.length frames in
  let t0 = Spans.now_ns () in
  let encoded = ref [] in
  for _ = 1 to rounds do
    encoded := List.map (fun (tag, p) -> Harness.Wire.encode ~tag p) frames
  done;
  let encode_ns = Spans.now_ns () - t0 in
  let t0 = Spans.now_ns () in
  let decoded = ref 0 in
  for _ = 1 to rounds do
    let d = Harness.Wire.decoder ~tags:"SR" () in
    List.iter
      (fun b ->
        Harness.Wire.feed d b 0 (Bytes.length b);
        match Harness.Wire.decode d with Ok (Some _) -> incr decoded | Ok None | Error _ -> ())
      !encoded
  done;
  let decode_ns = Spans.now_ns () - t0 in
  ( !decoded = rounds * n,
    [
      row "wire.encode_ns_per_frame" "ns" (ratio (fi encode_ns) (fi (rounds * n)));
      row "wire.decode_ns_per_frame" "ns" (ratio (fi decode_ns) (fi (rounds * n)));
    ] )

(* The campaign driven in-process through Harness.Client.run_campaign
   against a fresh serve.exe. *)
let campaign_rows ~handler_ns cells expected =
  let specs = List.map (fun c -> (Inputs.kind c, Inputs.payload c)) cells in
  let socket = Proc.socket () in
  let pid, _ = Proc.start_server ~socket in
  let cu0, cs0, wall, client_cpu, c =
    Proc.guarded_server pid @@ fun _ ->
    let cu0, cs0 = Proc.children_cpu () in
    let cpu0 = Proc.self_cpu () in
    let t0 = Spans.now_ns () in
    let c = Harness.Client.run_campaign ~socket specs in
    (cu0, cs0, since t0, Proc.self_cpu () -. cpu0, c)
  in
  let drained = Proc.stop_server pid in
  let cu1, cs1 = Proc.children_cpu () in
  let jobs = fi (List.length cells) in
  let exp = List.map (fun c -> Hashtbl.find expected (Inputs.key c)) cells in
  let ok = drained && c.Harness.Client.results = exp in
  let wire_ok, wire = wire_rows specs c.Harness.Client.results in
  ( ok && wire_ok,
    [
      row "server.overhead_ms_per_job" "ms"
        (Some (((wall *. 2.) -. Spans.seconds_of_ns handler_ns) /. jobs *. 1e3));
      row "server.cpu_s" "s" (Some (cu1 -. cu0 +. (cs1 -. cs0)));
      row "client.cpu_ms_per_job" "ms" (Some (client_cpu /. jobs *. 1e3));
      row "client.resubmits" "count" (Some (fi c.Harness.Client.resubmits));
      row "client.rejections" "count" (Some (fi c.Harness.Client.rejections));
      row "client.reconnects" "count" (Some (fi c.Harness.Client.reconnects));
    ]
    @ wire )

(* One way of running a cell: what it printed and its wall nanoseconds. *)
type way = { text : string; ns : int }

let timed_way f =
  let t0 = Spans.now_ns () in
  let text = f () in
  { text; ns = Spans.now_ns () - t0 }

type traced_cell = {
  handler : way;  (** the real Jobs_catalog.handler *)
  untraced : way;  (** the replay, with no shim and no span *)
  traced : way;  (** the replay with shims and spans *)
  spans : int * int;  (** the [idx] range of the spans it recorded *)
}

let rounds = 5

(* [f ()] with spans on: its result and the [idx] range of the spans
   it recorded. *)
let with_spans f =
  let lo = !Spans.next in
  Spans.on := true;
  let v = Fun.protect ~finally:(fun () -> Spans.on := false) f in
  (v, (lo, !Spans.next))

(* The cells of a sweep or campaign run three ways back to back: the
   real handler, the untraced replay and the traced replay, in an order
   rotated from cell to cell and round to round, so that the three see
   the same host and none always runs first.  Over [rounds] rounds each
   cell keeps its fastest run of each way (interference only adds
   time) and the spans of its fastest traced run.  The flag is false
   unless every traced replay printed what the untraced one did: the
   shims change nothing. *)
let trace_cells cells =
  let once turn c =
    let h = ref None and u = ref None and t = ref None in
    let handler () = Jobs_catalog.handler ~kind:(Inputs.kind c) ~payload:(Inputs.payload c) in
    let replay () = timed_way (fun () -> Replay.cell c) in
    let ways =
      [|
        (fun () -> h := Some (timed_way handler));
        (fun () -> u := Some (replay ()));
        (fun () -> t := Some (with_spans replay));
      |]
    in
    for j = 0 to 2 do
      ways.((turn + j) mod 3) ()
    done;
    let traced, spans = Option.get !t in
    { handler = Option.get !h; untraced = Option.get !u; traced; spans }
  in
  let faster a b = if b.ns < a.ns then b else a in
  let best a b =
    let t = if b.traced.ns < a.traced.ns then b else a in
    {
      handler = faster a.handler b.handler;
      untraced = faster a.untraced b.untraced;
      traced = t.traced;
      spans = t.spans;
    }
  in
  let all = List.init rounds (fun round -> List.mapi (fun i c -> once (i + round) c) cells) in
  ( List.fold_left (List.map2 best) (List.hd all) (List.tl all),
    List.for_all (List.for_all (fun m -> m.traced.text = m.untraced.text)) all )

(* exhaust_k2: the naive enumeration at k = 1, 2.  (leaves, survivors)
   per k, each leaf's nanoseconds, and the pass's. *)
let exhaust_pass side =
  let leaf_ns = ref [] in
  Gc.full_major ();
  let t0 = Spans.now_ns () in
  let counts =
    List.map
      (fun k -> Replay.exhaust_naive ~side ~k ~on_leaf:(fun ns -> leaf_ns := ns :: !leaf_ns))
      [ 1; 2 ]
  in
  (counts, List.rev !leaf_ns, Spans.now_ns () - t0)

(* The same three ways for exhaust_k2, whole passes at a time: the
   untraced replay, the traced replay and exhaust.exe, in an order
   rotated every round.  The fastest of each: the untraced pass, the
   traced pass with the [idx] range of its spans, and the binary's
   run; and every pass's counts. *)
let trace_exhaust inputs side =
  let untraced = ref [] and traced = ref [] and binary = ref [] in
  for round = 0 to rounds - 1 do
    let ways =
      [|
        (fun () -> untraced := exhaust_pass side :: !untraced);
        (fun () -> traced := with_spans (fun () -> exhaust_pass side) :: !traced);
        (fun () -> binary := run_batch (invocations inputs) :: !binary);
      |]
    in
    for j = 0 to 2 do
      ways.((round + j) mod 3) ()
    done
  done;
  let fastest ns = function
    | x :: rest -> List.fold_left (fun a b -> if ns b < ns a then b else a) x rest
    | [] -> invalid_arg "fastest"
  in
  let pass_ns (_, _, ns) = ns in
  ( fastest pass_ns !untraced,
    fastest (fun (p, _) -> pass_ns p) !traced,
    fastest (fun r -> r.wall) !binary,
    List.map (fun (c, _, _) -> c) !untraced @ List.map (fun ((c, _, _), _) -> c) !traced )

(* The traced run replays the inputs of the first run of an untraced
   invocation with the same seed. *)
let trace_session s =
  run_session s;
  let r = List.hd s.runs and inputs = List.hd s.inputs in
  let cells = all_cells inputs in
  let attempted = ref 0 and failed = ref 0 in
  let fail_unless ok = if not ok then incr failed in
  (* (canonical, naive) leaves per k, as exhaust.exe printed them *)
  let exhaust_counts =
    List.concat_map
      (fun (out, _) -> match parse_exhaust out with Some (c, _) -> c | None -> [])
      r.outputs
  in
  Spans.reset ();
  let expected = Hashtbl.create 64 in
  (* per cell: the handler's and the untraced replay's nanoseconds; the
     untraced and traced totals; the spans the layers are read from;
     the reference the coverage is taken against (below) *)
  let handler_ns, cell_ns, untraced_ns, traced_ns, spans, reference_ns =
    match inputs with
    | Exhaust side ->
        let (_, leaf_ns, untraced_ns), ((_, _, traced_ns), (lo, hi)), binary, counts =
          trace_exhaust inputs side
        in
        List.iter
          (fun c ->
            attempted := !attempted + List.fold_left (fun a (l, _) -> a + l) 0 c;
            fail_unless
              (List.map fst c = List.map snd exhaust_counts
              && List.for_all (fun (_, survivors) -> survivors = 0) c))
          counts;
        ( [],
          leaf_ns,
          untraced_ns,
          traced_ns,
          List.filter (fun (sp : Spans.span) -> lo <= sp.idx && sp.idx < hi) (Spans.recorded ()),
          binary.wall *. 1e9 )
    | _ ->
        let kept, shims_ok = trace_cells cells in
        fail_unless shims_ok;
        List.iter2
          (fun c m ->
            Hashtbl.replace expected (Inputs.key c) m.handler.text;
            incr attempted;
            fail_unless (contains m.handler.text m.traced.text && semantic_ok c m.handler.text))
          cells kept;
        let keep = Array.make !Spans.next false in
        List.iter (fun { spans = lo, hi; _ } -> Array.fill keep lo (hi - lo) true) kept;
        let sum f = List.fold_left (fun a m -> a + f m) 0 kept in
        ( List.map (fun m -> m.handler.ns) kept,
          List.map (fun m -> m.untraced.ns) kept,
          sum (fun m -> m.untraced.ns),
          sum (fun m -> m.traced.ns),
          List.filter (fun (sp : Spans.span) -> keep.(sp.idx)) (Spans.recorded ()),
          fi (sum (fun m -> m.handler.ns)) )
  in
  (* the binaries' output against the handler's *)
  let a, f = check_run ~expected ~reference:(ref None) inputs r in
  attempted := !attempted + a;
  failed := !failed + f;
  let handler_total = List.fold_left ( + ) 0 handler_ns in
  let pool_rows =
    if s.workload <> "thm1_sweep" then []
    else begin
      let busy jobs =
        let results, busy, wall = catalog ~jobs cells in
        List.iteri
          (fun i c -> fail_unless (results.(i) = Hashtbl.find expected (Inputs.key c)))
          cells;
        (fi (Array.fold_left ( + ) 0 busy) /. 1e9, wall)
      in
      let busy1, _ = busy 1 in
      let busy2, wall2 = busy 2 in
      [
        row "pool.busy_s" "s" (Some busy2);
        row "pool.util" "ratio" (Some (busy2 /. (2. *. wall2)));
        row "pool.busy_inflation" "ratio" (ratio busy2 busy1);
      ]
    end
  in
  let served_rows =
    match inputs with
    | Served cells ->
        let ok, rows = campaign_rows ~handler_ns:handler_total cells expected in
        fail_unless ok;
        rows
    | _ -> []
  in
  let handler_rows =
    match inputs with
    | Exhaust _ -> []
    | _ ->
        let a = Spans.sorted (List.map (fun ns -> fi ns /. 1e6) handler_ns) in
        [
          row "handler.busy_s" "s" (Some (Spans.seconds_of_ns handler_total));
          row "handler.p50_ms" "ms" (Some (Spans.percentile a 50.));
          row "handler.tail_ms" "ms" (Some (snd (Spans.tail a)));
        ]
  in
  let exhaust_rows =
    match inputs with
    | Exhaust _ ->
        let canon = List.fold_left (fun a (c, _) -> a + c) 0 exhaust_counts
        and naive = List.fold_left (fun a (_, n) -> a + n) 0 exhaust_counts in
        [
          row "exhaust.leaves_canon" "count" (Some (fi canon));
          row "exhaust.leaves_naive" "count" (Some (fi naive));
          row "exhaust.us_per_leaf" "us" (ratio (r.wall *. 1e6) (fi (canon + naive)));
        ]
    | _ -> []
  in
  let layers, attributed_ns = layer_rows spans in
  (* How much of the real work the layers account for, against a time
     measured apart from the spans: the real Jobs_catalog.handler on
     the same cells, or exhaust.exe's run.  The share of the traced
     replay that falls in a layer is scaled by the untraced replay,
     which takes out the shims' own cost.  It falls below 1 when time
     goes to no layer or when the replay skips work the handler does,
     and rises above 1 when the replay does work the handler does not.
     exhaust.exe also runs the canonical mode, which is not replayed. *)
  let coverage = fi attributed_ns /. fi traced_ns *. (fi untraced_ns /. reference_ns) in
  (match inputs with
  | Sweeps _ -> fail_unless (Float.abs (1. -. coverage) <= 0.10)
  | Served _ | Exhaust _ -> ());
  let rows =
    layers @ latency_rows "cell" cell_ns @ handler_rows @ pool_rows
    @ [
        row "proc.user_s" "s" (Some r.user);
        row "proc.sys_s" "s" (Some r.sys);
        row "proc.cpu_per_wall" "ratio" (Some ((r.user +. r.sys) /. r.wall));
      ]
    @ exhaust_rows @ served_rows
    @ [
        row "trace.overhead_frac" "ratio" (Some ((fi traced_ns /. fi untraced_ns) -. 1.));
        row "trace.coverage" "ratio" (Some coverage);
      ]
  in
  let path =
    Filename.concat Proc.work_dir (Printf.sprintf "spans-%s-seed%d.json" s.workload s.seed)
  in
  Spans.write ~path
    ~meta:
      [
        ("workload", Spans.json_string s.workload);
        ("seed", string_of_int s.seed);
        ("seconds", Spans.json_float s.seconds);
        ("ocaml", Spans.json_string Sys.ocaml_version);
        ("cores", string_of_int (Domain.recommended_domain_count ()));
      ]
    spans;
  Spans.reset ();
  (rows, !attempted, !failed, path)

(* ------------------------------- modes ------------------------------- *)

let single ~workload ~seed ~seconds ~trace =
  let s = prepare ~workload ~seed ~seconds in
  if trace then begin
    let rows, attempted, failed, path = trace_session s in
    Printf.printf "%s seed=%d seconds=%g traced (spans: %s)\n" workload seed seconds path;
    List.iter
      (fun r ->
        match r.rvalue with
        | Some v -> Printf.printf "  %-30s %14.6g %s\n" r.rname v r.runit
        | None -> ())
      rows;
    let pick name =
      match List.find_opt (fun r -> r.rname = name) rows with
      | Some { rvalue = Some v; runit; _ } -> (name, runit, v)
      | _ -> failwith ("per-layer metric not measured: " ^ name)
    in
    print_endline (result_json ~attempted ~failed (List.map pick per_layer_json));
    failed = 0
  end
  else begin
    measure [ s ];
    let ((metrics, attempted, failed) as e) = evaluate s in
    print_end_to_end s e;
    print_endline
      (result_json ~attempted ~failed
         (List.filter_map (fun m -> if m.json then Some (m.name, m.unit, m.value) else None) metrics));
    failed = 0
  end

(* Every workload untraced, their runs interleaved. *)
let run_all ~seed ~seconds =
  let sessions = List.map (fun workload -> prepare ~workload ~seed ~seconds) Inputs.workloads in
  measure sessions;
  List.fold_left
    (fun ok s ->
      let ((_, _, failed) as e) = evaluate s in
      print_end_to_end s e;
      ok && failed = 0)
    true sessions

let trace_all ~seed ~seconds =
  let results =
    List.map
      (fun workload ->
        let rows, attempted, failed, path = trace_session (prepare ~workload ~seed ~seconds) in
        Printf.printf "%s: %d checked, %d failed, spans in %s\n%!" workload attempted failed path;
        (workload, rows, failed))
      Inputs.workloads
  in
  let names =
    List.fold_left
      (fun acc (_, rows, _) ->
        List.fold_left
          (fun acc r -> if List.mem_assoc r.rname acc then acc else acc @ [ (r.rname, r.runit) ])
          acc rows)
      [] results
  in
  Printf.printf "%-30s %-6s" "per-layer metric" "unit";
  List.iter (fun (w, _, _) -> Printf.printf " %15s" w) results;
  print_newline ();
  List.iter
    (fun (name, unit) ->
      Printf.printf "%-30s %-6s" name unit;
      List.iter
        (fun (_, rows, _) ->
          match List.find_opt (fun r -> r.rname = name) rows with
          | Some { rvalue = Some v; _ } -> Printf.printf " %15.6g" v
          | _ -> Printf.printf " %15s" "-")
        results;
      print_newline ())
    names;
  List.for_all (fun (_, _, failed) -> failed = 0) results

let selftest () =
  let failures = ref 0 in
  let expect what ok =
    if not ok then begin
      incr failures;
      Printf.printf "selftest FAILED: %s\n" what
    end
  in
  List.iter
    (fun workload ->
      let gen seed = Inputs.render (Inputs.make ~workload ~seed ~seconds:10.) in
      expect (workload ^ ": same seed, same bytes") (gen 1 = gen 1 && gen 7 = gen 7);
      expect (workload ^ ": another seed, other inputs") (gen 1 <> gen 2);
      List.iter
        (fun flag -> expect (workload ^ ": no " ^ flag) (not (contains (gen 1) flag)))
        [ "--bulk"; "--memo"; "--trace"; "--stats"; "--flight" ])
    Inputs.workloads;
  (match Inputs.make ~workload:"served_campaign" ~seed:1 ~seconds:10. with
  | Served cells :: _ ->
      let keys = List.map Inputs.key cells in
      expect "served jobs are unique" (List.length (List.sort_uniq compare keys) = List.length keys)
  | _ -> expect "served_campaign is served" false);
  let q1, q3 = Spans.quartiles (List.init 10 (fun i -> fi (i + 1))) in
  expect "quartiles match statistics.quantiles" (q1 = 2.75 && q3 = 8.25);
  expect "tail leaves ten samples beyond it"
    (Spans.tail (Array.init 100 (fun i -> fi (i + 1))) = (90, 90.));
  Spans.reset ();
  Spans.on := true;
  Spans.with_span "cell" ~id:"x" (fun () ->
      Spans.with_span "setup" ~id:"x" (fun () -> Unix.sleepf 0.002);
      Unix.sleepf 0.002);
  Spans.on := false;
  let spans = Spans.recorded () in
  let selfs = Spans.self_ns spans ~below:(fun _ -> 0) in
  expect "self times add up to the root span"
    (List.fold_left (fun a (_, self) -> a + self) 0 selfs
    = Spans.duration (List.find (fun (s : Spans.span) -> s.parent < 0) spans));
  Spans.reset ();
  if !failures = 0 then print_endline "selftest: ok";
  !failures = 0

let smoke () =
  List.for_all
    (fun workload ->
      List.for_all
        (fun trace -> single ~workload ~seed:1 ~seconds:1. ~trace)
        [ false; true ])
    Inputs.workloads

let () =
  let argv = Sys.argv in
  let mode, rest =
    if Array.length argv > 1 && List.mem argv.(1) [ "run"; "trace"; "selftest"; "smoke" ] then
      (argv.(1), Array.append [| argv.(0) |] (Array.sub argv 2 (Array.length argv - 2)))
    else ("single", argv)
  in
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Inputs.workloads);
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S length of one invocation (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  let usage =
    "suite.exe [run|trace|selftest|smoke] [--workload W] [--seed N] [--seconds S] [--trace 0|1]"
  in
  match Arg.parse_argv rest spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage with
  | exception Arg.Bad msg ->
      prerr_string msg;
      exit 2
  | exception Arg.Help msg ->
      print_string msg;
      exit 0
  | () ->
      let ok =
        match mode with
        | "run" -> run_all ~seed:!seed ~seconds:!seconds
        | "trace" -> trace_all ~seed:!seed ~seconds:!seconds
        | "selftest" -> selftest ()
        | "smoke" -> smoke ()
        | _ ->
            if not (List.mem !workload Inputs.workloads) then begin
              prerr_endline ("--workload: expected one of " ^ String.concat ", " Inputs.workloads);
              exit 2
            end;
            if !seconds <= 0. || not (List.mem !trace [ 0; 1 ]) then begin
              prerr_endline usage;
              exit 2
            end;
            (* a wrong output is reported in the result, not the exit code *)
            ignore (single ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1));
            true
      in
      exit (if ok then 0 else 1)
