open Grid_graph

type t = {
  host : Graph.t;
  palette : int;
  mutable radius : int;  (* locality + oracle radius; fixed after [start] *)
  mutable instance : Algorithm.instance;  (* fixed after [start] *)
  region : Dyn_graph.t;
  frontier : Bfs.Frontier.t;  (* incremental revealed-view state *)
  handle_of_host : int array;  (* host node -> handle; -1 = unrevealed *)
  mutable host_of_handle : Graph.node array;  (* grown by doubling *)
  ids : Graph.node -> int;
  hints : Graph.node -> View.hint option;  (* by host node *)
  coloring : Colorings.Coloring.t;
  presented_set : Packed.Set.t;
  memo : Canon.Memo.ctx option;
  mutable steps : int;
  mutable max_view : int;
  mutable first_violation : Run_stats.violation option;
}

let to_host t handle = t.host_of_handle.(handle)

let record_handle t host_node =
  let handle = Dyn_graph.add_node t.region in
  if handle >= Array.length t.host_of_handle then begin
    let bigger = Array.make (max 16 (2 * Array.length t.host_of_handle)) (-1) in
    Array.blit t.host_of_handle 0 bigger 0 (Array.length t.host_of_handle);
    t.host_of_handle <- bigger
  end;
  t.host_of_handle.(handle) <- host_node;
  t.handle_of_host.(host_node) <- handle;
  handle

(* Everything that shapes views beyond the presentation order: the host
   adjacency itself is hashed so two different hosts can never share a
   memo chain (thm2's reflected band, thm3's seam chain, ...). *)
let host_fingerprint host =
  let b = Buffer.create 1024 in
  let n = Graph.n host in
  Buffer.add_string b (string_of_int n);
  for v = 0 to n - 1 do
    Buffer.add_char b ';';
    Array.iter
      (fun w ->
        if v < w then begin
          Buffer.add_string b (string_of_int w);
          Buffer.add_char b ','
        end)
      (Graph.neighbors host v)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let hint_repr = function
  | None -> "-"
  | Some (View.Grid_pos { frame; row; col }) ->
      Printf.sprintf "g%d:%d:%d" frame row col
  | Some (View.Gadget_pos { frame; gadget; row; col }) ->
      Printf.sprintf "G%d:%d:%d:%d" frame gadget row col
  | Some (View.Layer_pos { layer }) -> Printf.sprintf "l%d" layer

let start ?memo ?ids ?hints ?oracle ~host ~palette ~algorithm () =
  let n = Graph.n host in
  let ids = match ids with Some f -> f | None -> fun v -> v + 1 in
  let hints = match hints with Some f -> f | None -> fun _ -> None in
  let locality = algorithm.Algorithm.locality ~n in
  let t =
    {
      host;
      palette;
      radius = locality;
      instance = (fun _ -> assert false);
      region = Dyn_graph.create ();
      frontier = Bfs.Frontier.create host;
      handle_of_host = Array.make (max n 1) (-1);
      host_of_handle = Array.make 16 (-1);
      ids;
      hints;
      coloring = Colorings.Coloring.create n;
      presented_set = Packed.Set.create (max n 1);
      memo;
      steps = 0;
      max_view = 0;
      first_violation = None;
    }
  in
  let oracle = Option.map (fun mk -> mk ~to_host:(to_host t)) oracle in
  t.radius <- locality + (match oracle with Some o -> o.Oracle.radius | None -> 0);
  t.instance <- algorithm.Algorithm.instantiate ~n ~palette ~oracle;
  (match memo with
  | Some ctx when Canon.Memo.pure ctx ->
      Canon.Memo.begin_run ctx
        (Printf.sprintf "fh|%s|%d|%d|%b|%s" algorithm.Algorithm.name palette
           t.radius (oracle <> None) (host_fingerprint host))
  | _ -> ());
  t

let reveal_ball t center =
  (* Extend the region from the previous frontier; returns new handles in
     order.  [Frontier.reveal] yields exactly the nodes of
     [B(center, radius)] not yet revealed, ascending — byte-identical to
     the batch [Bfs.ball]-then-filter it replaces, at O(frontier) cost. *)
  let fresh = Bfs.Frontier.reveal t.frontier center t.radius in
  let fresh_handles = List.map (fun v -> record_handle t v) fresh in
  List.iter
    (fun v ->
      let hv = t.handle_of_host.(v) in
      Array.iter
        (fun w ->
          let hw = t.handle_of_host.(w) in
          if hw >= 0 then Dyn_graph.add_edge t.region hv hw)
        (Graph.neighbors t.host v))
    fresh;
  fresh_handles

let make_view t ~target ~new_nodes =
  {
    View.n_total = Graph.n t.host;
    palette = t.palette;
    node_count = (fun () -> Dyn_graph.n t.region);
    neighbors = (fun h -> Dyn_graph.neighbors t.region h);
    mem_edge = (fun a b -> Dyn_graph.mem_edge t.region a b);
    id = (fun h -> t.ids (to_host t h));
    output = (fun h -> Colorings.Coloring.get t.coloring (to_host t h));
    hint = (fun h -> t.hints (to_host t h));
    target;
    new_nodes;
    step = t.steps;
  }

(* An order entry outside the host is an adversary bug, certified before
   any per-node table is indexed with it. *)
let in_host t v = v >= 0 && v < Graph.n t.host

let present t v =
  if not (in_host t v) then
    raise
      (Run_stats.Dishonest_transcript
         (Printf.sprintf "Fixed_host.present: node %d outside [0, %d)" v
            (Graph.n t.host)));
  if Packed.Set.mem t.presented_set v then
    raise
      (Run_stats.Dishonest_transcript
         (Printf.sprintf "Fixed_host.present: node %d presented twice" v));
  Packed.Set.add t.presented_set v;
  t.steps <- t.steps + 1;
  let new_nodes = reveal_ball t v in
  t.max_view <- max t.max_view (Dyn_graph.n t.region);
  if Obs.Trace.on () then begin
    Obs.Trace.emit
      (Obs.Trace.Reveal
         {
           executor = "fixed_host";
           step = t.steps;
           fresh = List.length new_nodes;
           revealed = Dyn_graph.n t.region;
         });
    Obs.Trace.emit
      (Obs.Trace.Step
         {
           executor = "fixed_host";
           step = t.steps;
           target = v;
           revealed = Dyn_graph.n t.region;
           max_view = t.max_view;
         })
  end;
  if Obs.Metrics.on () then begin
    Obs.Metrics.incr "fixed_host.presented";
    Obs.Metrics.add "fixed_host.revealed" (List.length new_nodes)
  end;
  let target = t.handle_of_host.(v) in
  (* Memo: fold the step's full observable delta (each fresh node's id
     and hint enter the chain exactly once, when the node enters the
     region), then replay a cached answer if this chain key was already
     answered — pure algorithms only, exceptions never cached. *)
  let memo_step =
    match t.memo with
    | Some ctx when Canon.Memo.pure ctx ->
        let b = Buffer.create 64 in
        Buffer.add_string b "p|";
        Buffer.add_string b (string_of_int v);
        List.iter
          (fun h ->
            let hv = to_host t h in
            Buffer.add_char b '|';
            Buffer.add_string b (string_of_int hv);
            Buffer.add_char b ':';
            Buffer.add_string b (string_of_int (t.ids hv));
            Buffer.add_char b ':';
            Buffer.add_string b (hint_repr (t.hints hv)))
          new_nodes;
        let suffix = Buffer.contents b in
        Some (ctx, suffix, Canon.Memo.step_key ctx suffix)
    | _ -> None
  in
  let cached =
    match memo_step with
    | Some (ctx, _, key) -> Canon.Memo.find ctx key
    | None -> None
  in
  let color =
    match
      (match cached with
      | Some c ->
          (match memo_step with
          | Some (ctx, _, _) -> Canon.Memo.charge ctx
          | None -> ());
          c
      | None -> t.instance (make_view t ~target ~new_nodes))
    with
    | c ->
        (match (memo_step, cached) with
        | Some (ctx, _, key), None -> Canon.Memo.add ctx key c
        | _ -> ());
        c
    | exception ((Stack_overflow | Out_of_memory | Sys.Break) as e) -> raise e
    | exception exn ->
        let backtrace = Printexc.get_backtrace () in
        if t.first_violation = None then
          t.first_violation <-
            Some
              (Run_stats.Algorithm_failure
                 { node = v; message = Printexc.to_string exn; backtrace });
        -1
  in
  (match memo_step with
  | Some (ctx, suffix, _) ->
      Canon.Memo.fold ctx (suffix ^ "=" ^ string_of_int color)
  | None -> ());
  (if t.first_violation = None then
     if color < 0 || color >= t.palette then
       t.first_violation <- Some (Run_stats.Palette_overflow { node = v; color })
     else Colorings.Coloring.set t.coloring v color);
  color

let coloring t = t.coloring

let revealed_host_nodes t =
  List.init (Dyn_graph.n t.region) (fun h -> t.host_of_handle.(h))

let audit t =
  let violation =
    match t.first_violation with
    | Some _ as v -> v
    | None ->
        Option.map
          (fun (u, v) -> Run_stats.Monochromatic_edge (u, v))
          (Colorings.Coloring.find_monochromatic_edge t.host t.coloring)
  in
  if Obs.Trace.on () then
    Obs.Trace.emit
      (Obs.Trace.Audit
         {
           executor = "fixed_host";
           ok = violation = None;
           detail =
             (match violation with
             | None -> ""
             | Some v -> Format.asprintf "%a" Run_stats.pp_violation v);
         });
  if Obs.Metrics.on () then begin
    Obs.Metrics.observe "fixed_host.run.presented" t.steps;
    Obs.Metrics.observe "fixed_host.run.max_view" t.max_view;
    Obs.Metrics.gauge_max "fixed_host.max_view" t.max_view
  end;
  if Obs.Stats.on () then begin
    Obs.Stats.observe "fixed_host.presented" t.steps;
    Obs.Stats.observe "fixed_host.revealed" (Dyn_graph.n t.region);
    Obs.Stats.observe "fixed_host.max_view" t.max_view
  end;
  {
    Run_stats.coloring = t.coloring;
    violation;
    presented = t.steps;
    revealed = Dyn_graph.n t.region;
    max_view_size = t.max_view;
  }

let run ?memo ?ids ?hints ?oracle ~host ~palette ~algorithm ~order () =
  let t = start ?memo ?ids ?hints ?oracle ~host ~palette ~algorithm () in
  let rec go = function
    | [] -> ()
    | v :: rest ->
        if in_host t v && Packed.Set.mem t.presented_set v then
          (* A duplicated reveal order is an adversary bug: certify it
             rather than letting [present]'s invalid_arg abort the run. *)
          t.first_violation <- Some (Run_stats.Repeated_presentation v)
        else begin
          let (_ : int) = present t v in
          if t.first_violation = None then go rest
        end
  in
  go order;
  audit t

let orders ~all = function
  | `Sequential -> List.init (Graph.n all) (fun i -> i)
  | `Random seed ->
      let state = Random.State.make [| seed; Graph.n all |] in
      let a = Array.init (Graph.n all) (fun i -> i) in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int state (i + 1) in
        let tmp = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- tmp
      done;
      Array.to_list a
