(* In-process replay of a workload's cells, for the traced run.

   With [Spans.on] every cell records a span tree from outside the
   layers it calls:

     cell               one sweep cell, served job or exhaust leaf
       setup, format    the catalog's work around the game (an exhaust
       (setup, next)    leaf: its strategy table, the next strategy)
       thm1|thm2|thm3   Thm{1,2,3}_adversary.run — adversary + executor
                        (+ host) of online_local
         color calls    Portfolio instances, via a {r with instantiate}
                        shim over Models.Algorithm.t   } counted on the
           view calls   Models.View accessors, via a   } game span
                        {v with ...} shim over View.t  }

   With [Spans.on] false the same code runs with no shim and no span —
   the untraced replay the tracing overhead is measured against. *)

open Online_local

let color_calls = ref 0
let color_ns = ref 0
let view_calls = ref 0
let view_ns = ref 0

let timed acc f =
  let t0 = Spans.now_ns () in
  match f () with
  | v ->
      acc := !acc + (Spans.now_ns () - t0);
      v
  | exception e ->
      acc := !acc + (Spans.now_ns () - t0);
      raise e

let view1 f x =
  incr view_calls;
  timed view_ns (fun () -> f x)

let shim_view (v : Models.View.t) =
  {
    v with
    node_count = view1 v.node_count;
    neighbors = view1 v.neighbors;
    mem_edge = (fun a b -> view1 (v.mem_edge a) b);
    id = view1 v.id;
    output = view1 v.output;
    hint = view1 v.hint;
  }

let shim (a : Models.Algorithm.t) =
  if not !Spans.on then a
  else
    {
      a with
      instantiate =
        (fun ~n ~palette ~oracle ->
          let inst = timed color_ns (fun () -> a.instantiate ~n ~palette ~oracle) in
          fun view ->
            incr color_calls;
            timed color_ns (fun () -> inst (shim_view view)));
    }

(* A game span carrying the counters of everything below it. *)
let game name ~id play ~steps =
  if not !Spans.on then play ()
  else begin
    let c0 = (!color_calls, !color_ns, !view_calls, !view_ns) in
    let g0 = Gc.quick_stat () in
    let r = Spans.with_span name ~id play in
    let g1 = Gc.quick_stat () in
    let cc, cn, vc, vn = c0 in
    let presented, revealed = steps r in
    Spans.annotate
      [
        ("steps", presented);
        ("reveals", revealed);
        ("color_calls", !color_calls - cc);
        ("color_ns", !color_ns - cn);
        ("view_calls", !view_calls - vc);
        ("view_ns", !view_ns - vn);
        ("minor_words", int_of_float (g1.Gc.minor_words -. g0.Gc.minor_words));
        ("promoted_words", int_of_float (g1.Gc.promoted_words -. g0.Gc.promoted_words));
        ("major_collections", g1.Gc.major_collections - g0.Gc.major_collections);
      ];
    r
  end

(* One cell: the adversary report as pp_report prints it, which the
   catalog's result for the cell must contain; a fuzz job, which plays
   no game, returns the catalog's result itself.  Algorithms and wraps
   come from the catalog's own tables. *)
let cell (c : Inputs.cell) =
  let id = Inputs.key c in
  let setup f = Spans.with_span "setup" ~id (fun () -> shim (f ())) in
  let format pp r = Spans.with_span "format" ~id (fun () -> Format.asprintf "%a" pp r) in
  Spans.with_span "cell" ~id @@ fun () ->
  match c with
  | Thm1 { t; k; side; algo } ->
      let algorithm = setup (fun () -> Jobs_catalog.thm1_algorithm algo t) in
      game "thm1" ~id
        (fun () -> Thm1_adversary.run ~n_side:side ~k ~algorithm ())
        ~steps:(fun r -> (r.Thm1_adversary.presented, r.Thm1_adversary.revealed))
      |> format Thm1_adversary.pp_report
  | Thm2 { wrap; side; algo } ->
      let algorithm = setup (fun () -> List.assoc algo Jobs_catalog.thm2_algorithms ()) in
      let wrap = Jobs_catalog.thm2_wrap_of wrap in
      game "thm2" ~id
        (fun () -> Thm2_adversary.run ~wrap ~side ~algorithm ())
        ~steps:(fun r -> (r.Thm2_adversary.presented, r.Thm2_adversary.revealed))
      |> format Thm2_adversary.pp_report
  | Thm3 { k; gadgets; algo } ->
      let algorithm = setup (fun () -> List.assoc algo Jobs_catalog.thm3_algorithms ()) in
      game "thm3" ~id
        (fun () -> Thm3_adversary.run ~k ~gadgets ~algorithm ())
        ~steps:(fun r -> (r.Thm3_adversary.presented, r.Thm3_adversary.revealed))
      |> format Thm3_adversary.pp_report
  | Fuzz _ ->
      Spans.with_span "setup" ~id (fun () ->
          Jobs_catalog.handler ~kind:(Inputs.kind c) ~payload:(Inputs.payload c))

(* The naive mode of exhaust.exe, replayed leaf by leaf: every
   deterministic strategy, keyed on its answer transcript, against the
   b-force adversary (Lemma 3.6 without the endgame).  A depth-first
   search over decision points: unmapped transcripts answer 0 and are
   recorded; the next strategy bumps the last decision still below 2
   and drops everything after it.  The strategy table's set-up and the
   step to the next strategy are spans of their own ("setup", "next"),
   so a leaf's time splits like a sweep cell's.  [on_leaf] gets each
   leaf's wall nanoseconds.  Returns (leaves, survivors). *)
let exhaust_naive ~side ~k ~on_leaf =
  let leaves = ref 0 and survivors = ref 0 in
  let rec next_strategy = function
    | [] -> None
    | (key, c) :: rest when c < 2 -> Some (List.rev ((key, c + 1) :: rest))
    | _ :: rest -> next_strategy rest
  in
  let leaf prefix =
    let id = Printf.sprintf "side=%d k=%d leaf=%d" side k !leaves in
    Spans.with_span "cell" ~id @@ fun () ->
    let fresh = ref [] in
    let algorithm =
      Spans.with_span "setup" ~id @@ fun () ->
      let tbl = Hashtbl.create 97 in
      List.iter (fun (key, c) -> Hashtbl.replace tbl key c) prefix;
      let transcript = Buffer.create 64 in
      let strategy _view =
        let key = Buffer.contents transcript in
        let c =
          match Hashtbl.find_opt tbl key with
          | Some c -> c
          | None ->
              Hashtbl.replace tbl key 0;
              fresh := key :: !fresh;
              0
        in
        Buffer.add_char transcript (Char.chr (Char.code '0' + c));
        c
      in
      shim
        (Models.Algorithm.stateless ~pure:false ~name:"exhaust-strategy"
           ~locality:(fun ~n:_ -> 0)
           strategy)
    in
    let r =
      game "thm1" ~id
        (fun () -> Thm1_adversary.run ~endgame:false ~n_side:side ~k ~algorithm ())
        ~steps:(fun r -> (r.Thm1_adversary.presented, r.Thm1_adversary.revealed))
    in
    Spans.with_span "next" ~id @@ fun () ->
    incr leaves;
    (match r.Thm1_adversary.result with
    | `Survived when r.Thm1_adversary.forced_b < k -> incr survivors
    | `Survived | `Defeated _ -> ());
    next_strategy (List.rev (prefix @ List.rev_map (fun key -> (key, 0)) !fresh))
  in
  let rec go prefix =
    let t0 = Spans.now_ns () in
    let next = leaf prefix in
    on_leaf (Spans.now_ns () - t0);
    Option.iter go next
  in
  go [];
  (!leaves, !survivors)
