(* Host speed, measured by a fixed piece of the benchmark's own work.

   The benchmark runs on shared hosts whose speed drifts by a third or
   more within seconds (neighbours on the same cores and caches), which
   moves every time it measures by more than the bounds in
   BENCHMARK.json.  [measure] times a fixed, deterministic amount of
   OCaml work of the kind the binaries do (hashing, balanced-tree
   inserts, sorting, allocation, digests, and reads scattered over a
   table larger than a core's private cache) spread over the same
   number of domains a run keeps busy.  Taken right before and right
   after a run, on the same cores, it says how much slower than the
   reference the host ran meanwhile.  The work is the benchmark's, not
   the program's: no change to the program under test moves it. *)

module Int_map = Map.Make (Int)

(* Chunks per domain. *)
let chunks = 20

(* The reference speed: a host on which [measure] takes this long, at
   one domain or two.  The times the benchmark reports are scaled to
   it.  On the 2-vCPU x86-64 host the benchmark was written on (OCaml
   5.1.1), [measure] took 60-100 ms as its neighbours came and went. *)
let reference_s = 0.050

(* 16 MB of a random cyclic permutation: a walk through it misses the
   private caches on every step. *)
let table =
  lazy
    (let n = 1 lsl 21 in
     let perm = Array.init n Fun.id in
     let rng = Random.State.make [| 17 |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int rng (i + 1) in
       let x = perm.(i) in
       perm.(i) <- perm.(j);
       perm.(j) <- x
     done;
     let next = Array.make n 0 in
     for i = 0 to n - 1 do
       next.(perm.(i)) <- perm.((i + 1) mod n)
     done;
     next)

(* One chunk, about 2 ms on the reference host, in four parts of about
   equal time.  Against a time series of exhaust.exe runs on a noisy
   host, the four together tracked its speed better than any one. *)
let chunk table seed =
  let x = ref (seed lor 1) in
  let next () =
    x := (!x * 0x5DEECE66D) + 11;
    (!x lsr 17) land 0xFFFFF
  in
  (* hashing, a balanced tree, sorting *)
  let h = Hashtbl.create 16 in
  let m = ref Int_map.empty in
  for i = 1 to 2048 do
    let k = next () in
    Hashtbl.replace h k i;
    if i land 3 = 0 then m := Int_map.add k i !m
  done;
  let hits = ref 0 in
  for _ = 1 to 2048 do
    if Hashtbl.mem h (next ()) then incr hits
  done;
  let l = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) h []) in
  (* reads that miss the private caches *)
  let p = ref (seed * 4099 land (Array.length table - 1)) in
  for _ = 1 to 4096 do
    p := table.(!p)
  done;
  (* short-lived allocation streaming through the minor heap *)
  let young = ref 0 in
  for r = 1 to 80 do
    let l = List.init 500 (fun i -> (i + r, float_of_int i)) in
    let l = List.rev_map (fun (a, b) -> (b, a * 3)) l in
    young := List.fold_left (fun acc (_, a) -> acc + a) !young l
  done;
  (* strings and digests, as canonical keys are built *)
  let keys = Hashtbl.create 16 in
  for i = 1 to 500 do
    let s = Printf.sprintf "%d;%d,%d;%d-%d" i (next ()) (next ()) (next () land 7) (next () land 15) in
    Hashtbl.replace keys (Digest.to_hex (Digest.string s)) i
  done;
  !hits + List.length l + Int_map.cardinal !m + !p + !young + Hashtbl.length keys

(* Seconds [chunks * domains] chunks take when [domains] domains draw
   them from one counter, as the sweep pool draws cells. *)
let measure ~domains =
  let table = Lazy.force table in
  let counter = Atomic.make 0 in
  let sink = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add counter 1 in
    if i < chunks * domains then begin
      ignore (Atomic.fetch_and_add sink (chunk table i));
      work ()
    end
  in
  let t0 = Spans.now_ns () in
  let helpers = List.init (domains - 1) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join helpers;
  Spans.seconds_of_ns (Spans.now_ns () - t0)

(* ------------------------------ affinity ------------------------------ *)

external affinity_get : unit -> string = "suite_affinity_get"
external affinity_set : string -> unit = "suite_affinity_set"

(* The mask with only the highest CPU of [mask] (CPU 0 takes most
   interrupts). *)
let highest_cpu mask =
  let b = Bytes.make (String.length mask) '\000' in
  let rec scan i =
    if i < 0 then invalid_arg "highest_cpu: empty mask"
    else
      let c = Char.code mask.[i] in
      if c = 0 then scan (i - 1)
      else
        let rec top bit = if c land (1 lsl bit) <> 0 then bit else top (bit - 1) in
        Bytes.set b i (Char.chr (1 lsl top 7))
  in
  scan (String.length mask - 1);
  Bytes.to_string b

(* [f ()] with the calling thread, and every process and domain it
   starts, kept on one CPU when [domains] is 1, so that a single-core
   run and the calibrations around it see the same core.  The mask is
   restored afterwards. *)
let on_cpus ~domains f =
  if domains <> 1 then f ()
  else begin
    let mask = affinity_get () in
    affinity_set (highest_cpu mask);
    Fun.protect ~finally:(fun () -> affinity_set mask) f
  end
