(* Seeded inputs of the four workloads.

   Everything a run executes is derived here from (workload, seed,
   seconds): the same triple gives byte-identical argument lists and
   job files.  The binaries receive only these generated arguments.

   Sizes are fixed by [seconds] through cost constants measured on a
   2-core x86-64 box (OCaml 5.1.1), never by timing the code under
   test, so a faster commit runs the same inputs in less time.  Runs
   are short (about half a second) and many, each framed by host-speed
   calibrations, and the benchmark reports medians (see README.md).

   The seed moves every value the binaries see (sides, gadget counts,
   job payloads), but it only jitters each workload around a fixed
   cost profile: end-to-end spread across seeds must stay well inside
   the bounds in BENCHMARK.json, so a seed changes the inputs without
   changing how much work they are. *)

type cell =
  | Thm1 of { t : int; k : int; side : int; algo : string }
  | Thm2 of { wrap : string; side : int; algo : string }
  | Thm3 of { k : int; gadgets : int; algo : string }
  | Fuzz of { target : string; seed : int; cases : int }

let kind = function
  | Thm1 _ -> "thm1"
  | Thm2 _ -> "thm2"
  | Thm3 _ -> "thm3"
  | Fuzz _ -> "fuzz"

(* The documented "payload IS the cell key" format of Jobs_catalog. *)
let payload = function
  | Thm1 { t; k; side; algo } ->
      Printf.sprintf "t=%d k=%d side=%d algo=%s" t k side algo
  | Thm2 { wrap; side; algo } ->
      Printf.sprintf "wrap=%s side=%d algo=%s" wrap side algo
  | Thm3 { k; gadgets; algo } ->
      Printf.sprintf "k=%d gadgets=%d algo=%s" k gadgets algo
  | Fuzz { target; seed; cases } ->
      Printf.sprintf "target=%s seed=%d cases=%d" target seed cases

let key c = kind c ^ ":" ^ payload c

(* One binary invocation and the cells it prints, in stdout order. *)
type sweep = { bin : string; args : string list; cells : cell list }

type run =
  | Sweeps of sweep list
  | Exhaust of int  (** [exhaust.exe -k 1,2 --side S] *)
  | Served of cell list  (** one campaign, in job-file order *)

let workloads =
  [ "thm1_sweep"; "frontier_sweep"; "exhaust_k2"; "served_campaign" ]

let csv f xs = String.concat "," (List.map f xs)
let uniform rng lo hi = lo + Random.State.int rng (hi - lo + 1)

(* thm1_sweep: one seeded side of the Theorem 1 grid t 1..6, k 9,11,13,
   ael and greedy: 36 cells, ~0.45 s at --jobs 2, most of it the AEL
   cells at t = 5, 6.  The axes run from the expensive end, so the two
   workers finish together instead of one waiting out a late heavy
   cell.  The side does not change a cell's cost (the adversary plays
   on a virtual grid), so the seed moves it freely. *)
let thm1_sweep rng =
  let ts = [ 6; 5; 4; 3; 2; 1 ] and ks = [ 13; 11; 9 ] and algos = [ "ael"; "greedy" ] in
  let side = uniform rng 16000 60000 in
  Sweeps
    [
      {
        bin = "sweep_thm1";
        args =
          [ "-t"; csv string_of_int ts; "-k"; csv string_of_int ks; "--side";
            string_of_int side; "--algo"; String.concat "," algos; "--jobs"; "2" ];
        cells =
          List.concat_map
            (fun t ->
              List.concat_map
                (fun k -> List.map (fun algo -> Thm1 { t; k; side; algo }) algos)
                ks)
            ts;
      };
    ]

(* frontier_sweep: large fixed hosts, ~0.33 s.  The thm2 host is the
   peak-memory process and its peak moves in heap-growth steps (side
   179: 34.5 MB, 181: 39.1 MB), so its side stays 181 and the seed only
   orders its wraps; the seed draws the thm3 chain from 256..279
   gadgets. *)
let thm2_algos = List.map fst Jobs_catalog.thm2_algorithms
let thm3_algos = List.map fst Jobs_catalog.thm3_algorithms

let frontier_sweep rng =
  let side = 181 and gadgets = 256 + Random.State.int rng 24 in
  let wraps = if Random.State.bool rng then [ "torus"; "cylinder" ] else [ "cylinder"; "torus" ] in
  let ks = [ 3; 4 ] in
  Sweeps
    [
      {
        bin = "sweep_thm2";
        args =
          [ "--side"; string_of_int side; "--wrap"; String.concat "," wraps; "--jobs"; "1" ];
        cells =
          List.concat_map
            (fun wrap -> List.map (fun algo -> Thm2 { wrap; side; algo }) thm2_algos)
            wraps;
      };
      {
        bin = "sweep_thm3";
        args = [ "--gadgets"; string_of_int gadgets; "-k"; csv string_of_int ks; "--jobs"; "1" ];
        cells =
          List.concat_map
            (fun k -> List.map (fun algo -> Thm3 { k; gadgets; algo }) thm3_algos)
            ks;
      };
    ]

(* served_campaign: the mixed job list of the chaos-soak job in
   .github/workflows/ci.yml, the repository's own served campaign,
   eight times over with seeded sizes: 168 jobs, ~0.45 s through
   serve.exe --jobs 2 --isolate proc.  Each block of 21 keeps that
   list's kinds, order and axes:

     12 thm2   wrap torus, cylinder x 3 sides x algo greedy, ael(T=1)
      4 thm1   t 1, 2 x k 6, 9, algo ael
      4 thm3   k 4, 5 x algo greedy, gadget-rows
      1 fuzz   wire-codec, 100 cases

   CI fixes the sizes (thm2 sides 13, 17, 21; thm1 side 400; thm3 3
   gadgets; fuzz seed 42); here the seed draws them so that no job
   repeats within a campaign and the server's dedup table never
   answers from cache.  Per wrap, the 24 thm2 sides come without
   replacement from the odd sides 13..73 and the 8 thm3 gadget counts
   from 3..14, the smallest ranges from CI's values up that hold them
   with room for the seed to choose; thm1 sides and fuzz seeds are
   drawn distinct.  A thm1 game's cost does not depend on its side. *)
let blocks = 8

(* [n] distinct values drawn from [lo, hi] by a partial shuffle. *)
let distinct rng n lo hi =
  let a = Array.init (hi - lo + 1) (fun i -> lo + i) in
  List.init n (fun i ->
      let j = i + Random.State.int rng (Array.length a - i) in
      let x = a.(j) in
      a.(j) <- a.(i);
      a.(i) <- x;
      x)

let served_campaign rng =
  let odd_sides () = List.map (fun i -> 13 + (2 * i)) (distinct rng (3 * blocks) 0 30) in
  let torus = odd_sides () in
  let cylinder = odd_sides () in
  let thm1_sides = distinct rng (4 * blocks) 400 60000 in
  let gadgets = distinct rng blocks 3 14 in
  let fuzz_seeds = distinct rng blocks 1 1_000_000 in
  let nth3 xs b = List.filteri (fun i _ -> i / 3 = b) xs in
  let block b =
    List.concat_map
      (fun (wrap, sides) ->
        List.concat_map
          (fun side -> List.map (fun algo -> Thm2 { wrap; side; algo }) thm2_algos)
          (nth3 sides b))
      [ ("torus", torus); ("cylinder", cylinder) ]
    @ List.mapi
        (fun i (t, k) -> Thm1 { t; k; side = List.nth thm1_sides ((4 * b) + i); algo = "ael" })
        [ (1, 6); (1, 9); (2, 6); (2, 9) ]
    @ List.concat_map
        (fun k ->
          List.map (fun algo -> Thm3 { k; gadgets = List.nth gadgets b; algo }) thm3_algos)
        [ 4; 5 ]
    @ [ Fuzz { target = "wire-codec"; seed = List.nth fuzz_seeds b; cases = 100 } ]
  in
  Served (List.concat (List.init blocks block))

(* Seconds one run takes on the reference box (medians of the
   baseline in BASELINE.json; a served run also starts a server and
   drains it).  They only spread the set-up probes over an invocation
   and cap how many runs it prepares: how many runs it makes is set by
   the clock (suite.ml). *)
let run_cost = function
  | "thm1_sweep" -> 0.43
  | "frontier_sweep" -> 0.37
  | "exhaust_k2" -> 0.60
  | _ -> 0.72

(* How many cores a run keeps busy: --jobs 2 domains, or a server's two
   workers; the host-speed calibration uses as many domains. *)
let domains = function "thm1_sweep" | "served_campaign" -> 2 | _ -> 1

let expected_runs ~workload ~seconds =
  max 4 (int_of_float (Float.round (seconds /. run_cost workload)))

(* What each run of an invocation may execute, the warm-up first: up
   to three times the expected count, so a much faster commit still
   fills [seconds].  Runs repeat the same inputs, except exhaust_k2
   (~0.6 s per side, whatever the side), whose oracle needs no
   in-process replay, so each run draws a side of its own. *)
let make ~workload ~seed ~seconds =
  let rng = Random.State.make [| seed; Hashtbl.hash workload |] in
  let runs = 3 * expected_runs ~workload ~seconds in
  let same r = List.init runs (fun _ -> r) in
  match workload with
  | "thm1_sweep" -> same (thm1_sweep rng)
  | "frontier_sweep" -> same (frontier_sweep rng)
  | "exhaust_k2" -> List.init runs (fun _ -> Exhaust (uniform rng 16 64))
  | "served_campaign" -> same (served_campaign rng)
  | other -> invalid_arg ("unknown workload: " ^ other)

(* The job file submit.exe reads: one "kind TAB payload" per line. *)
let job_file cells =
  String.concat "" (List.map (fun c -> kind c ^ "\t" ^ payload c ^ "\n") cells)

(* A byte rendering of everything the runs hand the binaries — what the
   selftest compares across two generations of one seed. *)
let render runs =
  let one = function
    | Sweeps ss -> String.concat "\n" (List.map (fun s -> String.concat " " (s.bin :: s.args)) ss)
    | Exhaust side -> Printf.sprintf "exhaust -k 1,2 --side %d" side
    | Served cells -> job_file cells
  in
  String.concat "\n--\n" (List.map one runs)
