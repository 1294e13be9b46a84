module Graph = Grid_graph.Graph
module Grid2d = Topology.Grid2d
module Coloring = Colorings.Coloring
module Brute = Colorings.Brute
module Bvalue = Colorings.Bvalue
module Game = Online_local.Game
module Verdict = Online_local.Verdict

type packed =
  | Packed : {
      gen : 'a Gen.t;
      print : 'a -> string;
      prop : 'a -> bool;
    }
      -> packed

type t = {
  name : string;
  doc : string;
  max_cases : int option;
  available : unit -> (unit, string) result;
  packed : packed;
}

let always_available () = Ok ()

(* ------------------------------------------------------------------ *)
(* proper-vs-brute                                                    *)
(* ------------------------------------------------------------------ *)

(* Exhaustive enumeration appears on both sides of the differential, so
   instances stay tiny: [count_colorings] at 3 colors on 7 nodes is at
   most 3^7 = 2187 leaves. *)
let tiny_graph : Graph.t Gen.t =
  Gen.bind (Gen.int_range 1 7) (fun n ->
      let endpoint = Gen.int_range 0 (n - 1) in
      Gen.map
        (fun pairs ->
          Graph.create ~n ~edges:(List.filter (fun (u, v) -> u <> v) pairs))
        (Gen.list ~max_len:(2 * n) (Gen.pair endpoint endpoint)))

let proper_vs_brute =
  let gen = Gen.pair tiny_graph (Gen.int_range 2 3) in
  let print (g, colors) =
    Printf.sprintf "%s colors=%d" (Domain_gen.print_graph g) colors
  in
  let prop (g, colors) =
    let count = Brute.count_colorings g ~colors in
    let exists = Brute.exists_coloring g ~colors in
    let chromatic = Brute.chromatic_number g in
    match Brute.find_coloring g ~colors with
    | Some c ->
        Coloring.is_proper_total g (Coloring.of_array c) ~colors
        && exists && count > 0 && chromatic <= colors
    | None -> (not exists) && count = 0 && chromatic > colors
  in
  {
    name = "proper-vs-brute";
    doc =
      "Brute.find_coloring against the independent propriety checker and its \
       own existence/counting/chromatic faces, on all graphs up to 7 nodes";
    max_cases = None;
    available = always_available;
    packed = Packed { gen; print; prop };
  }

(* ------------------------------------------------------------------ *)
(* bvalue-cancel                                                      *)
(* ------------------------------------------------------------------ *)

let bvalue_cancel =
  let gen =
    Gen.bind (Domain_gen.simple_grid ~rows:(2, 5) ~cols:(2, 5)) (fun grid ->
        Gen.map2
          (fun coloring rect -> (grid, coloring, rect))
          (Domain_gen.proper_coloring (Grid2d.graph grid) ~colors:3)
          (Domain_gen.rectangle grid))
  in
  let print (grid, coloring, (top, bottom, left, right)) =
    Printf.sprintf "grid %dx%d rect=(t%d,b%d,l%d,r%d) coloring=[%s]"
      (Grid2d.rows grid) (Grid2d.cols grid) top bottom left right
      (String.concat ";" (Array.to_list (Array.map string_of_int coloring)))
  in
  let prop (grid, coloring, (top, bottom, left, right)) =
    let g = Grid2d.graph grid in
    let cyc = Bvalue.rectangle_cycle grid ~top ~bottom ~left ~right in
    (* Lemma 3.4: any rectangle cycle of a properly colored grid has
       b = 0; Lemma 3.5 gives its parity and the parity of any row
       segment. *)
    Bvalue.grid_cycle_b_is_zero grid coloring cyc
    && Bvalue.check_parity_cycle coloring cyc
    && Bvalue.check_parity_path coloring
         (Grid2d.row_segment grid ~row:top ~col_lo:left ~col_hi:right)
    (* Lemma 3.3 on every unit cell inside the rectangle. *)
    && (let ok = ref true in
        for r = top to bottom - 1 do
          for c = left to right - 1 do
            let cell =
              Bvalue.rectangle_cycle grid ~top:r ~bottom:(r + 1) ~left:c
                ~right:(c + 1)
            in
            if not (Bvalue.check_cell_cancellation g coloring cell) then
              ok := false
          done
        done;
        !ok)
  in
  {
    name = "bvalue-cancel";
    doc =
      "Lemmas 3.3-3.5 (cell cancellation, rectangle b = 0, parity) on random \
       proper 3-colorings of random simple grids and random rectangles";
    max_cases = None;
    available = always_available;
    packed = Packed { gen; print; prop };
  }

(* ------------------------------------------------------------------ *)
(* thm{1,2,3}-game                                                    *)
(* ------------------------------------------------------------------ *)

(* Faults.spin burns its whole work budget on every case it fires in,
   so the default 50M-tick budget would make spin cases dominate the
   wall clock.  2M ticks keeps a spin case under a few milliseconds and
   changes no verdict: budget exhaustion is Algorithm_fault however
   small the budget. *)
let fuzz_limits =
  {
    Harness.Guard.max_color_calls = Some 200_000;
    max_work = Some 2_000_000;
    deadline = Some 10.0;
  }

let hard_fault = function
  | "out-of-palette" | "raise" | "spin" -> true
  | _ -> false

type game_case = {
  alg_name : string;
  algorithm : Models.Algorithm.t;
  fault : (string * (Models.Algorithm.t -> Models.Algorithm.t)) option;
  n : int;
}

let game_case_gen ~n_range:(lo, hi) : game_case Gen.t =
  Gen.map3
    (fun (alg_name, algorithm) fault n -> { alg_name; algorithm; fault; n })
    Domain_gen.grid_algorithm Domain_gen.fault_plan (Gen.int_range lo hi)

let print_game_case game c =
  Printf.sprintf "game=%s alg=%s fault=%s n=%d" game.Game.name c.alg_name
    (match c.fault with None -> "none" | Some (f, _) -> f)
    c.n

(* The verdict invariants every adversary must satisfy, fault injection
   or not:
   - an honest adversary never produces [Adversary_fault];
   - a theory-guaranteed honest game never ends [Survived] (an honest
     algorithm may still fault, e.g. AEL raising on a non-bipartite
     host — that is not a survival);
   - a first-call out-of-palette/raise/spin always lands as
     [Algorithm_fault] (the E7 fault matrix, quantified over random
     victims and sizes). *)
let game_prop game c =
  let algorithm =
    match c.fault with
    | None -> c.algorithm
    | Some (_, inject) -> inject c.algorithm
  in
  let v =
    game.Game.play ~limits:fuzz_limits ~n:c.n algorithm
  in
  let honest_adversary =
    match v.Verdict.outcome with Verdict.Adversary_fault _ -> false | _ -> true
  in
  let guaranteed_defeat =
    match (c.fault, v.Verdict.guaranteed, v.Verdict.outcome) with
    | None, true, Verdict.Survived -> false
    | _ -> true
  in
  let faults_classified =
    match c.fault with
    | Some (name, _) when hard_fault name -> (
        match v.Verdict.outcome with Verdict.Algorithm_fault _ -> true | _ -> false)
    | _ -> true
  in
  honest_adversary && guaranteed_defeat && faults_classified

let game_target ~name ~doc ~n_range pick_game =
  let gen =
    Gen.bind (game_case_gen ~n_range) (fun c ->
        Gen.map (fun game -> (game, c)) pick_game)
  in
  {
    name;
    doc;
    max_cases = None;
    available = always_available;
    packed =
      Packed
        {
          gen;
          print = (fun (game, c) -> print_game_case game c);
          prop = (fun (game, c) -> game_prop game c);
        };
  }

let thm1_game =
  game_target ~name:"thm1-game"
    ~doc:
      "Theorem 1 verdict invariants over random portfolio algorithms, fault \
       plans and grid sides"
    ~n_range:(8, 40)
    (Gen.return Game.thm1)

let thm2_game =
  game_target ~name:"thm2-game"
    ~doc:
      "Theorem 2 (torus and cylinder) verdict invariants over random \
       algorithms, fault plans and sides"
    ~n_range:(7, 15)
    (Gen.oneof_const [ Game.thm2_torus; Game.thm2_cylinder ])

let thm3_game =
  game_target ~name:"thm3-game"
    ~doc:
      "Theorem 3 verdict invariants over random algorithms, fault plans and \
       gadget counts"
    ~n_range:(3, 10)
    (Gen.return Game.thm3)

(* ------------------------------------------------------------------ *)
(* sweep-resume                                                       *)
(* ------------------------------------------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "fuzz_sweep" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let render ?resume ?checkpoint ?jobs ?isolation cells =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Harness.Sweep.run ?resume ?checkpoint ?jobs ?isolation ~ppf cells;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let sweep_cells specs =
  List.mapi
    (fun i (payload, fail) ->
      {
        Harness.Sweep.key = Printf.sprintf "cell-%d" i;
        run =
          (fun () ->
            if fail then failwith (Printf.sprintf "injected failure %d" payload)
            else Printf.sprintf "payload=%d" payload);
      })
    specs

let sweep_resume =
  let gen =
    Gen.pair
      (Gen.list ~min_len:1 ~max_len:6
         (Gen.pair (Gen.int_range 0 99) Gen.bool))
      (Gen.int_range 0 100)
  in
  let print (specs, cut_pct) =
    Printf.sprintf "cells=[%s] cut=%d%%"
      (String.concat "; "
         (List.map
            (fun (p, f) -> Printf.sprintf "%d%s" p (if f then "!" else ""))
            specs))
      cut_pct
  in
  let prop (specs, cut_pct) =
    let baseline = render (sweep_cells specs) in
    with_temp_file (fun ckpt ->
        let first = render ~checkpoint:ckpt (sweep_cells specs) in
        let contents =
          In_channel.with_open_bin ckpt In_channel.input_all
        in
        (* Cut the checkpoint anywhere after the header — mid-record
           tears included — and resume: the output must still be
           byte-identical (a torn record re-runs its cell). *)
        let header_end =
          match String.index_opt contents '\n' with
          | Some i -> i + 1
          | None -> String.length contents
        in
        let cut =
          header_end
          + (String.length contents - header_end) * cut_pct / 100
        in
        Out_channel.with_open_bin ckpt (fun oc ->
            Out_channel.output_string oc (String.sub contents 0 cut));
        let resumed = render ~resume:true ~checkpoint:ckpt (sweep_cells specs) in
        String.equal baseline first && String.equal baseline resumed)
  in
  {
    name = "sweep-resume";
    doc =
      "Sweep checkpoint/resume byte-identity under random cell sets, injected \
       cell failures and random checkpoint truncation (torn records included)";
    max_cases = Some 60;
    available = always_available;
    packed = Packed { gen; print; prop };
  }

(* ------------------------------------------------------------------ *)
(* stats-merge                                                        *)
(* ------------------------------------------------------------------ *)

(* The determinism contract of Obs.Stats, differentially: the exact
   integer merge must be commutative and associative (so totals cannot
   depend on the work partition), and a drained registry must be
   byte-identical however the sweep distributed the cells. *)
let stats_merge =
  let gen =
    Gen.list ~min_len:1 ~max_len:6
      (Gen.list ~max_len:6 (Gen.int_range (-50) 1_100_000_000))
  in
  let print cells =
    Printf.sprintf "cells=[%s]"
      (String.concat ";"
         (List.map
            (fun vs -> "[" ^ String.concat "," (List.map string_of_int vs) ^ "]")
            cells))
  in
  let with_stats f =
    Obs.Stats.enable ();
    Obs.Stats.reset ();
    Fun.protect
      ~finally:(fun () ->
        Obs.Stats.disable ();
        Obs.Stats.reset ())
      f
  in
  let run_once ?isolation cells_values =
    with_stats @@ fun () ->
    let cells =
      List.mapi
        (fun i vs ->
          {
            Harness.Sweep.key = Printf.sprintf "s-%d" i;
            run =
              (fun () ->
                List.iter (fun v -> Obs.Stats.observe "fuzz.value" v) vs;
                Obs.Stats.observe "fuzz.cell_len" (List.length vs);
                Printf.sprintf "n=%d" (List.length vs));
          })
        cells_values
    in
    let out = render ~jobs:2 ?isolation cells in
    let snap = Obs.Stats.drain () in
    (out, Obs.Stats.to_string snap, Format.asprintf "%a" Obs.Stats.pp snap)
  in
  let prop cells_values =
    (* The drained registry of an in-process sweep and of one on two
       worker processes, equal down to the bytes of both the transport
       encoding and the rendered table. *)
    let out1, str1, pp1 = run_once cells_values in
    let out2, str2, pp2 = run_once ~isolation:`Process cells_values in
    let invariant =
      String.equal out1 out2 && String.equal str1 str2 && String.equal pp1 pp2
    in
    (* Merge laws over the per-cell deltas captured by scoped. *)
    let deltas =
      with_stats @@ fun () ->
      List.map
        (fun vs ->
          let (), d =
            Obs.Stats.scoped (fun () ->
                List.iter (fun v -> Obs.Stats.observe "fuzz.value" v) vs)
          in
          if d = "" then []
          else match Obs.Stats.of_string d with Ok s -> s | Error _ -> [])
        cells_values
    in
    let merge = Obs.Stats.merge in
    let commutative =
      match deltas with
      | a :: b :: _ -> merge a b = merge b a
      | _ -> true
    in
    let associative =
      List.fold_left merge [] deltas = List.fold_right merge deltas []
    in
    invariant && commutative && associative
  in
  {
    name = "stats-merge";
    doc =
      "Stats merge commutative/associative over per-cell deltas, and the \
       drained registry byte-identical in-process vs on 2 worker processes";
    max_cases = Some 40;
    available =
      (fun () ->
        if Obs.Stats.on () then
          Error
            "stats registry already enabled (run without --stats to fuzz this \
             target)"
        else Ok ());
    packed = Packed { gen; print; prop };
  }

(* ------------------------------------------------------------------ *)
(* sweep-kill                                                         *)
(* ------------------------------------------------------------------ *)

(* A process-isolated sweep must survive a worker process dying mid-cell
   at any point: the victim cell SIGKILLs its own worker process on the
   first attempt (after a randomized amount of work, so the kill lands
   at a random point of the parent's supervision loop), the supervisor
   retries it, and the final output must be byte-identical to a run
   with no kill at all. *)
let sweep_kill =
  let gen =
    Gen.bind
      (Gen.list ~min_len:2 ~max_len:5 (Gen.int_range 0 99))
      (fun payloads ->
        Gen.map3
          (fun victim kill_work jobs -> (payloads, victim, kill_work, jobs))
          (Gen.int_range 0 (List.length payloads - 1))
          (Gen.int_range 0 500)
          (Gen.int_range 1 2))
  in
  let print (payloads, victim, kill_work, jobs) =
    Printf.sprintf "payloads=[%s] victim=%d kill_work=%d jobs=%d"
      (String.concat ";" (List.map string_of_int payloads))
      victim kill_work jobs
  in
  let plain_cells payloads =
    List.mapi
      (fun i payload ->
        {
          Harness.Sweep.key = Printf.sprintf "cell-%d" i;
          run = (fun () -> Printf.sprintf "payload=%d" payload);
        })
      payloads
  in
  (* Retries are instant-ish here: the backoff only has to order events,
     not protect anything, and fuzz throughput matters. *)
  let fast_supervisor =
    {
      Harness.Supervisor.default_config with
      Harness.Supervisor.backoff =
        { Harness.Backoff.default with base = 0.001; max = 0.01 };
    }
  in
  let prop (payloads, victim, kill_work, jobs) =
    let baseline = render (plain_cells payloads) in
    (* The marker starts empty and the victim writes a byte into it, so
       the name stays this case's own from draw to removal: a deleted
       temp file's name could be drawn again by a sibling worker. *)
    with_temp_file (fun marker ->
        let cells =
          List.mapi
            (fun i payload ->
              {
                Harness.Sweep.key = Printf.sprintf "cell-%d" i;
                run =
                  (fun () ->
                    if i = victim && (Unix.stat marker).Unix.st_size = 0 then begin
                      Out_channel.with_open_gen [ Open_wronly; Open_binary ] 0 marker
                        (fun oc -> Out_channel.output_char oc 'k');
                      (* burn a randomized amount of work so the SIGKILL
                         lands at a random phase of the parent loop *)
                      for _ = 1 to kill_work * 200 do
                        ignore (Sys.opaque_identity ())
                      done;
                      Unix.kill (Unix.getpid ()) Sys.sigkill
                    end;
                    Printf.sprintf "payload=%d" payload);
              })
            payloads
        in
        let buf = Buffer.create 256 in
        let ppf = Format.formatter_of_buffer buf in
        Harness.Sweep.run ~jobs ~isolation:`Process ~supervisor:fast_supervisor
          ~ppf cells;
        Format.pp_print_flush ppf ();
        String.equal baseline (Buffer.contents buf))
  in
  {
    name = "sweep-kill";
    doc =
      "Process-isolated sweep survives a worker SIGKILLed at random timing \
       mid-cell: one retry later the output is byte-identical to an unkilled \
       run";
    max_cases = Some 12;
    available = always_available;
    packed = Packed { gen; print; prop };
  }

(* ------------------------------------------------------------------ *)
(* wire-codec                                                         *)
(* ------------------------------------------------------------------ *)

(* The framing codec under hostile bytes: random valid frame streams
   mangled by truncation, bit flips, or a forged length prefix, fed to
   the decoder in adversarially small chunks.  Whatever arrives, the
   decoder must answer with frames or a typed error — never an
   exception, and never an allocation driven by a declared length the
   stream has not earned (the forged-length case asserts the error
   fires while the buffered bytes are still tiny). *)

type wire_mutation =
  | Wm_none
  | Wm_truncate of int  (* keep this many bytes *)
  | Wm_flip of int * int  (* byte index seed, bit 0-7 *)
  | Wm_forge_length of int * bool  (* frame index seed; negative? *)

let wire_codec =
  let cap = 4096 in
  let frame_gen =
    Gen.frequency
      [
        (1, Gen.return ('H', ""));
        ( 4,
          Gen.map2
            (fun tag bytes ->
              ( tag,
                String.init (List.length bytes) (fun i ->
                    Char.chr (List.nth bytes i)) ))
            (Gen.oneof_const [ 'R'; 'E' ])
            (Gen.list ~max_len:40 (Gen.int_range 0 255)) );
      ]
  in
  let mutation_gen =
    Gen.frequency
      [
        (2, Gen.return Wm_none);
        (2, Gen.map (fun n -> Wm_truncate n) (Gen.int_range 0 200));
        ( 3,
          Gen.map2 (fun i bit -> Wm_flip (i, bit)) (Gen.int_range 0 200)
            (Gen.int_range 0 7) );
        ( 2,
          Gen.map2
            (fun i neg -> Wm_forge_length (i, neg))
            (Gen.int_range 0 10) Gen.bool );
      ]
  in
  let gen =
    Gen.map3
      (fun frames mutation chunk -> (frames, mutation, chunk))
      (Gen.list ~max_len:8 frame_gen)
      mutation_gen (Gen.int_range 1 7)
  in
  let print (frames, mutation, chunk) =
    let pf (tag, payload) = Printf.sprintf "%c:%s" tag (String.escaped payload) in
    Printf.sprintf "frames=[%s] mutation=%s chunk=%d"
      (String.concat " " (List.map pf frames))
      (match mutation with
      | Wm_none -> "none"
      | Wm_truncate n -> Printf.sprintf "truncate:%d" n
      | Wm_flip (i, b) -> Printf.sprintf "flip:%d.%d" i b
      | Wm_forge_length (i, neg) ->
          Printf.sprintf "forge:%d%s" i (if neg then ":neg" else ""))
      chunk
  in
  let prop (frames, mutation, chunk) =
    let module Wire = Harness.Wire in
    let stream =
      String.concat ""
        (List.map
           (fun (tag, payload) ->
             if tag = 'H' then Bytes.to_string (Wire.encode_bare tag)
             else Bytes.to_string (Wire.encode ~tag payload))
           frames)
    in
    (* frame-header offsets, for aiming the forged length at one *)
    let header_offsets =
      List.rev
        (snd
           (List.fold_left
              (fun (off, acc) (tag, payload) ->
                if tag = 'H' then (off + 1, acc)
                else (off + 5 + String.length payload, off :: acc))
              (0, []) frames))
    in
    let stream =
      match mutation with
      | Wm_none -> stream
      | Wm_truncate keep ->
          String.sub stream 0 (min keep (String.length stream))
      | Wm_flip (i, bit) ->
          if stream = "" then stream
          else begin
            let b = Bytes.of_string stream in
            let i = i mod Bytes.length b in
            Bytes.set b i
              (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
            Bytes.to_string b
          end
      | Wm_forge_length (i, neg) -> (
          match header_offsets with
          | [] -> stream
          | offs ->
              let off = List.nth offs (i mod List.length offs) in
              let b = Bytes.of_string stream in
              (* tag byte at [off]; 4 length bytes follow.  Declare far
                 past the cap (or negative): the decoder must refuse
                 before buffering anything like that much. *)
              Bytes.set_int32_be b (off + 1)
                (if neg then 0x80000001l else Int32.max_int);
              Bytes.to_string b)
    in
    let dec = Wire.decoder ~max_payload:cap ~tags:"RE" ~bare:"H" () in
    let decoded = ref [] in
    let error = ref None in
    (try
       let pos = ref 0 in
       while !pos < String.length stream && !error = None do
         let len = min chunk (String.length stream - !pos) in
         Wire.feed_string dec (String.sub stream !pos len);
         pos := !pos + len;
         let drain = ref true in
         while !drain do
           match Wire.decode dec with
           | Ok None -> drain := false
           | Ok (Some { Wire.tag; payload }) ->
               decoded := (tag, payload) :: !decoded;
               (* a decoded payload can never exceed the cap *)
               if String.length payload > cap then begin
                 error := Some "over-cap payload";
                 drain := false
               end
           | Error e ->
               error := Some (Wire.error_to_string e);
               drain := false
         done
       done
     with exn ->
       (* the one absolute rule: typed errors, never exceptions *)
       error := Some ("EXCEPTION " ^ Printexc.to_string exn));
    let decoded = List.rev !decoded in
    let no_exception =
      match !error with
      | Some e -> not (String.length e > 9 && String.sub e 0 9 = "EXCEPTION")
      | None -> true
    in
    let is_prefix l1 l2 =
      let rec go a b =
        match (a, b) with
        | [], _ -> true
        | x :: a', y :: b' -> x = y && go a' b'
        | _ -> false
      in
      go l1 l2
    in
    no_exception
    &&
    match mutation with
    | Wm_none -> !error = None && decoded = frames
    | Wm_truncate _ ->
        (* a truncated stream decodes a prefix and never errors: the
           missing bytes are indistinguishable from not-yet-arrived *)
        !error = None && is_prefix decoded frames
    | Wm_flip _ ->
        (* any outcome is legal except an exception or an over-cap
           payload (both already folded into the checks above) *)
        (match !error with Some "over-cap payload" -> false | _ -> true)
    | Wm_forge_length _ ->
        (* if decoding reached the forged header it must refuse with a
           typed length error while holding only the bytes actually fed *)
        header_offsets = []
        || (match !error with
           | Some e ->
               (String.length e >= 9 && String.sub e 0 9 = "oversized")
               || String.length e >= 8
                  && String.sub e 0 8 = "negative"
           | None -> true (* an earlier frame consumed the stream short *))
           && Wire.buffered dec <= String.length stream
  in
  {
    name = "wire-codec";
    doc =
      "Wire framing under truncation, bit flips, forged length prefixes and \
       1-byte chunking: typed errors only, never an exception, never an \
       allocation driven by a declared length";
    max_cases = None;
    available = always_available;
    packed = Packed { gen; print; prop };
  }

(* ------------------------------------------------------------------ *)
(* view-incremental                                                   *)
(* ------------------------------------------------------------------ *)

(* Differential for the incremental executor core: the real
   {!Models.Fixed_host} executor (incremental {!Grid_graph.Bfs.Frontier}
   reveals, flat handle map, packed presented set, the view read from
   the host rows) against a reference replay from first principles.
   Per step:
   - the fresh host-node list must equal a batch [Bfs.ball] over the
     whole host filtered against the revealed-so-far set, order
     included: handle numbering is observable through greedy first-fit;
   - every [stride]-th step (1 to 3, so one read may wire several
     steps), every handle's [View.neighbors] must equal, order
     included, the definition in dyn_graph.mli: a per-node stdlib
     [Hashtbl.create 4], filled by [replace] as the region was wired
     (each step's fresh nodes in handle order, each over its host row,
     both endpoints) and read with a consing fold.  The reference
     shares no code with [Dyn_graph] or [Fixed_host]. *)

(* Hosts the executor plays on: simple grids, tori and cylinders, thm2
   variant hosts and gadget chains (k = 5 passes degree 32, where the
   bucket count doubles). *)
let executor_host =
  Gen.bind (Gen.int_range 0 3) (function
    | 0 ->
        Gen.map
          (fun g ->
            (Printf.sprintf "grid %dx%d" (Grid2d.rows g) (Grid2d.cols g), Grid2d.graph g))
          (Domain_gen.simple_grid ~rows:(2, 6) ~cols:(2, 6))
    | 1 ->
        Gen.map3
          (fun torus rows cols ->
            let wrap = if torus then Grid2d.Toroidal else Grid2d.Cylindrical in
            ( Printf.sprintf "%s %dx%d" (if torus then "torus" else "cylinder") rows cols,
              Grid2d.graph (Grid2d.create wrap ~rows ~cols) ))
          Gen.bool (Gen.int_range 3 6) (Gen.int_range 3 6)
    | 2 ->
        Gen.map3
          (fun torus (rows, cols) (lo, span) ->
            let band_lo = lo mod rows in
            let band_hi = min (rows - 1) (band_lo + span) in
            ( Printf.sprintf "thm2 %s %dx%d band %d..%d"
                (if torus then "torus" else "cylinder") rows cols band_lo band_hi,
              Online_local.Thm2_adversary.variant_host
                ~wrap:(if torus then `Toroidal else `Cylindrical)
                ~rows ~cols ~reflect:true ~band_lo ~band_hi ))
          Gen.bool
          (Gen.pair (Gen.int_range 3 7) (Gen.int_range 3 7))
          (Gen.pair (Gen.int_range 0 6) (Gen.int_range 0 3))
    | _ ->
        Gen.map2
          (fun k gadgets ->
            ( Printf.sprintf "gadgets k=%d x%d" k gadgets,
              Topology.Gadget.graph (Topology.Gadget.create ~k ~gadgets ()) ))
          (Gen.int_range 3 5) (Gen.int_range 1 3))

let view_incremental =
  let gen =
    Gen.bind executor_host (fun ((_, host) as named) ->
        Gen.map3
          (fun (alg_name, algorithm) order stride ->
            (named, alg_name, algorithm, order, stride))
          Domain_gen.grid_algorithm (Domain_gen.order host) (Gen.int_range 1 3))
  in
  let print ((name, _), alg_name, _, order, stride) =
    Printf.sprintf "%s alg=%s stride=%d order=[%s]" name alg_name stride
      (String.concat ";" (List.map string_of_int order))
  in
  let prop ((_, host), _, algorithm, order, stride) =
    let palette = 3 in
    let radius = algorithm.Models.Algorithm.locality ~n:(Graph.n host) in
    (* The real execution, stopped where [run] stops: on the first
       out-of-palette answer (an algorithm raise surfaces as color -1).
       The algorithm is wrapped to keep each step's view, which still
       shows that step after [present] returns. *)
    let view = ref None in
    let spy =
      {
        algorithm with
        Models.Algorithm.instantiate =
          (fun ~n ~palette ~oracle ->
            let inner = algorithm.Models.Algorithm.instantiate ~n ~palette ~oracle in
            fun v ->
              view := Some v;
              inner v);
      }
    in
    let t = Models.Fixed_host.start ~host ~palette ~algorithm:spy () in
    (* The reference: each revealed host node's handle, in reveal order,
       and one [Hashtbl] of neighbor handles per handle. *)
    let handle_of = Hashtbl.create 64 and tables = Hashtbl.create 64 in
    let wire h h' = Hashtbl.replace (Hashtbl.find tables h) h' () in
    let rec go step = function
      | [] -> true
      | v :: rest ->
          let before = Hashtbl.length handle_of in
          let color = Models.Fixed_host.present t v in
          let fresh =
            List.filter
              (fun u -> not (Hashtbl.mem handle_of u))
              (Grid_graph.Bfs.ball host [ v ] radius)
          in
          List.iter
            (fun u ->
              let h = Hashtbl.length handle_of in
              Hashtbl.replace handle_of u h;
              Hashtbl.replace tables h (Hashtbl.create ~random:false 4))
            fresh;
          List.iter
            (fun u ->
              let h = Hashtbl.find handle_of u in
              Graph.iter_neighbors host u (fun w ->
                  match Hashtbl.find_opt handle_of w with
                  | Some h' ->
                      wire h h';
                      wire h' h
                  | None -> ()))
            fresh;
          let count = Hashtbl.length handle_of in
          let real_fresh =
            List.filteri (fun i _ -> i >= before) (Models.Fixed_host.revealed_host_nodes t)
          in
          let same_order =
            match !view with
            | None -> false
            | Some view ->
                view.Models.View.node_count () = count
                && (step mod stride <> 0
                   || List.for_all
                        (fun h ->
                          view.Models.View.neighbors h
                          = Hashtbl.fold (fun w () acc -> w :: acc) (Hashtbl.find tables h) [])
                        (List.init count Fun.id))
          in
          real_fresh = fresh && same_order
          && (color < 0 || color >= palette || go (step + 1) rest)
    in
    go 1 order
  in
  {
    name = "view-incremental";
    doc =
      "Fixed_host executor differential on grids, tori, cylinders, thm2 \
       variant hosts and gadget chains: incremental Frontier reveals vs a \
       batch ball-and-filter reference agree on every per-step fresh-node \
       list, and every handle's neighbor order equals a per-node Hashtbl \
       filled in wiring order";
    max_cases = None;
    available = always_available;
    packed = Packed { gen; print; prop };
  }

(* ------------------------------------------------------------------ *)
(* canon-relabel                                                      *)
(* ------------------------------------------------------------------ *)

(* Canonical labeling under attack from two sides: the key must be
   invariant under random relabelings, and [Canon.iso_equal] must agree
   with a brute-force permutation search (both directions — distinct
   keys for non-isomorphic pairs included). *)
let canon_relabel =
  let colored_graph =
    Gen.bind (Gen.int_range 1 6) (fun n ->
        let endpoint = Gen.int_range 0 (n - 1) in
        Gen.map2
          (fun pairs colors ->
            ( n,
              List.filter (fun (u, v) -> u <> v) pairs,
              Array.of_list colors ))
          (Gen.list ~max_len:(2 * n) (Gen.pair endpoint endpoint))
          (Gen.list_size n (Gen.int_range 0 2)))
  in
  let gen =
    Gen.bind colored_graph (fun ((n, _, _) as a) ->
        Gen.map2
          (fun b perm -> (a, b, Array.of_list perm))
          colored_graph
          (Gen.permutation (List.init n (fun i -> i))))
  in
  let print ((n, edges, colors), (n2, edges2, _), perm) =
    Printf.sprintf "n=%d edges=[%s] colors=[%s] vs n=%d edges=[%s] perm=[%s]" n
      (String.concat ";"
         (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) edges))
      (String.concat ";"
         (Array.to_list (Array.map string_of_int colors)))
      n2
      (String.concat ";"
         (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) edges2))
      (String.concat ";" (Array.to_list (Array.map string_of_int perm)))
  in
  let mk (n, edges, colors) = Canon.make ~n ~edges ~colors in
  let rec perms = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l)))
          l
  in
  let brute_iso a b =
    a.Canon.n = b.Canon.n
    && List.exists
         (fun p ->
           let t = Canon.transport (Array.of_list p) a in
           t.Canon.colors = b.Canon.colors && t.Canon.adj = b.Canon.adj)
         (perms (List.init a.Canon.n (fun i -> i)))
  in
  let prop ((a_raw, b_raw, perm) : (int * (int * int) list * int array)
                                   * (int * (int * int) list * int array)
                                   * int array) =
    let a = mk a_raw in
    let b = mk b_raw in
    (* 1. relabeling (a fresh reveal order) never moves the key *)
    let relabeled = Canon.transport perm a in
    String.equal (Canon.key a) (Canon.key relabeled)
    && Canon.transport (Canon.certificate a) a = Canon.canon a
    (* 2. iso_equal = brute-force permutation search, both verdicts *)
    && Canon.iso_equal a b = brute_iso a b
    && String.equal (Canon.key a) (Canon.key b) = brute_iso a b
  in
  {
    name = "canon-relabel";
    doc =
      "Canonical labeling: key invariance under random relabelings and \
       iso_equal vs brute-force isomorphism (distinct keys for \
       non-isomorphic views)";
    max_cases = Some 60;
    available = always_available;
    packed = Packed { gen; print; prop };
  }

(* ------------------------------------------------------------------ *)
(* demo-bug                                                           *)
(* ------------------------------------------------------------------ *)

let demo_bug =
  let gen = Gen.list ~max_len:20 (Gen.int_range 0 1000) in
  let print xs =
    Printf.sprintf "[%s]" (String.concat ";" (List.map string_of_int xs))
  in
  let prop xs = List.fold_left ( + ) 0 xs < 100 in
  {
    name = "demo-bug";
    doc =
      "Deliberately broken property (list sums stay below 100); shrinks to \
       [100].  Armed only when FUZZ_DEMO_BUG=1 — the CI probe that shrinking \
       and replay work end-to-end";
    max_cases = None;
    available =
      (fun () ->
        match Sys.getenv_opt "FUZZ_DEMO_BUG" with
        | Some "1" -> Ok ()
        | _ -> Error "set FUZZ_DEMO_BUG=1 to arm this deliberately broken target");
    packed = Packed { gen; print; prop };
  }

let all =
  [
    proper_vs_brute;
    bvalue_cancel;
    thm1_game;
    thm2_game;
    thm3_game;
    sweep_resume;
    sweep_kill;
    stats_merge;
    wire_codec;
    view_incremental;
    canon_relabel;
    demo_bug;
  ]

let default_names =
  List.filter_map
    (fun t -> if String.equal t.name "demo-bug" then None else Some t.name)
    all

let find name = List.find_opt (fun t -> String.equal t.name name) all
