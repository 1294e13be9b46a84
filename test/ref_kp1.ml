(* The Theorem 4 algorithm as it was before its barrier walked only the
   frontier of X': every Algorithm 1 layer rescans all of X' with a
   fresh neighbor list per node and a fresh [Hashtbl].  Kept verbatim
   below the next line as the model of [Online_local.Kp1_coloring]
   ("reference" in test_kp1.ml plays both on the same views). *)
module Uf_dyn = Online_local.Uf_dyn

module V = Models.View

type stats = {
  mutable merges : int;
  mutable type_changes : int;
  mutable swaps : int;
  mutable wave_commits : int;
  mutable escapes : int;
  mutable largest_group : int;
}

let fresh_stats () =
  {
    merges = 0;
    type_changes = 0;
    swaps = 0;
    wave_commits = 0;
    escapes = 0;
    largest_group = 0;
  }

let ceil_log2 n =
  let rec go acc p = if p >= n then acc else go (acc + 1) (2 * p) in
  go 0 1

let default_locality ~k ~n = max 1 (3 * (k - 1) * ceil_log2 n)

(* A group is a connected component of the seen region.  Its nodes carry
   {e labels} in [{0..k-1}]: a fixed bijective renaming of the parts of the
   unique k-partition restricted to the group (globally consistent within
   the group — the renaming is applied wholesale when groups merge, which
   is what lets oracle queries stay local: one representative per label
   stands in for the whole group).  [type_perm] maps labels to colors;
   while Algorithm 1 is mid-flight it temporarily maps into [{0..k}]
   (using the spare color), hence a plain int array rather than a
   {!Colorings.Perm.t}. *)
type group = {
  mutable members : int list;
  mutable committed_nodes : int list;  (* the paper's X' *)
  mutable type_perm : int array;  (* label -> color *)
  mutable reps : int array;  (* label -> a member with that label, or -1 *)
  mutable size : int;
}

type strategy = Oracle_reps | Bipartite_incremental

(* Handle-indexed state grows by doubling with the handles it has seen
   (like {!Uf_dyn}), never with [n]: Theorem 1's [n] is the side
   squared.  A read past the end means "absent" and a write grows the
   arrays, as with the hashtables they replace, so a handle this
   instance was never shown (a wrapper answered that step for it)
   behaves as it always did. *)
type state = {
  k : int;
  spare : int;  (* the extra color k *)
  flip : [ `Smaller | `Larger ];
  strategy : strategy;
  oracle : Models.Oracle.t option;
  uf : Uf_dyn.t;
  mutable groups : group array;  (* union-find root -> group; [no_group] = none *)
  mutable label : int array;  (* handle -> label; -1 = none *)
  mutable committed : int array;  (* handle -> color; -1 = none *)
  mutable fresh_at : int array;  (* handle -> the [stamp] of the step it was new in *)
  mutable stamp : int;  (* steps so far *)
  mutable side : int array;  (* bipartite flood: handle -> side; -1 = unreached *)
  mutable cls : int array;  (* bipartite flood: handle -> class *)
  stats : stats;
}

let no_group =
  { members = []; committed_nodes = []; type_perm = [||]; reps = [||]; size = 0 }

let ensure st h =
  let cap = Array.length st.label in
  if h >= cap then begin
    let cap' = max (h + 1) (2 * cap) in
    let extend a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    st.label <- extend st.label (-1);
    st.committed <- extend st.committed (-1);
    st.groups <- extend st.groups no_group;
    st.fresh_at <- extend st.fresh_at 0;
    st.side <- extend st.side (-1);
    st.cls <- extend st.cls 0
  end

(* Whether [h] is one of the current step's new nodes. *)
let is_new st h = h < Array.length st.fresh_at && st.fresh_at.(h) = st.stamp

let label_of st h = if h < Array.length st.label then st.label.(h) else -1

let label_exn st h =
  match label_of st h with
  | -1 -> invalid_arg (Printf.sprintf "kp1: handle %d has no label" h)
  | l -> l

let committed_of st h = if h < Array.length st.committed then st.committed.(h) else -1
let is_committed st h = committed_of st h >= 0

let commit st h color =
  match committed_of st h with
  | -1 ->
      ensure st h;
      st.committed.(h) <- color
  | c when c <> color ->
      invalid_arg (Printf.sprintf "kp1: recommitting handle %d (%d -> %d)" h c color)
  | _ -> ()

let set_label st h l =
  ensure st h;
  st.label.(h) <- l

let find_group st root =
  let g = if root < Array.length st.groups then st.groups.(root) else no_group in
  if g == no_group then raise Not_found else g

(* ------------------------------------------------------------------ *)
(* Labeling new nodes                                                  *)
(* ------------------------------------------------------------------ *)

(* Oracle-based labeling: query the partition of (new nodes + one
   representative per label of every adjacent group); translate the
   canonical parts into the base group's label space, extending with
   fresh labels for parts the base group has never seen. *)
let oracle_label st (view : V.t) ~new_nodes ~base ~others =
  let oracle =
    match st.oracle with
    | Some o -> o
    | None -> invalid_arg "kp1: this instance needs a partition oracle"
  in
  let reps_of g =
    Array.to_list (Array.of_seq (Seq.filter (fun r -> r >= 0) (Array.to_seq g.reps)))
  in
  let anchors = List.concat_map reps_of (match base with None -> others | Some b -> b :: others) in
  let queried = new_nodes @ anchors in
  let parts = oracle.Models.Oracle.query view queried in
  let part_of = Hashtbl.create (List.length queried * 2 + 1) in
  List.iteri (fun i h -> Hashtbl.replace part_of h parts.(i)) queried;
  (* sigma: canonical part -> base label. *)
  let sigma = Array.make st.k (-1) in
  let sigma_range = Array.make st.k false in
  (match base with
  | None -> ()
  | Some b ->
      Array.iteri
        (fun l rep ->
          if rep >= 0 then begin
            let p = Hashtbl.find part_of rep in
            if sigma.(p) >= 0 && sigma.(p) <> l then
              invalid_arg "kp1: oracle partition inconsistent with base labels";
            sigma.(p) <- l;
            sigma_range.(l) <- true
          end)
        b.reps);
  (* Extend sigma over every part present in the query. *)
  let next_free = ref 0 in
  let fresh_label () =
    while !next_free < st.k && sigma_range.(!next_free) do incr next_free done;
    if !next_free >= st.k then invalid_arg "kp1: ran out of labels (k too small?)";
    sigma_range.(!next_free) <- true;
    !next_free
  in
  List.iter
    (fun h ->
      let p = Hashtbl.find part_of h in
      if sigma.(p) < 0 then sigma.(p) <- fresh_label ())
    queried;
  (* Label the new nodes. *)
  List.iter (fun h -> set_label st h sigma.(Hashtbl.find part_of h)) new_nodes;
  (* Renaming of each other group's labels into the base space: rho_X such
     that rho_X(label_X of part p) = sigma(p). *)
  let rho_of x =
    let rho = Array.make st.k (-1) in
    let used = Array.make st.k false in
    Array.iteri
      (fun l rep ->
        if rep >= 0 then begin
          let p = Hashtbl.find part_of rep in
          if sigma.(p) < 0 then
            invalid_arg "kp1: part of a group representative missing from sigma";
          rho.(l) <- sigma.(p);
          used.(sigma.(p)) <- true
        end)
      x.reps;
    (* Extend to a full bijection over labels the group never used. *)
    let free = ref 0 in
    Array.iteri
      (fun l image ->
        if image < 0 then begin
          while !free < st.k && used.(!free) do incr free done;
          rho.(l) <- !free;
          used.(!free) <- true
        end)
      rho;
    rho
  in
  List.map (fun x -> (x, rho_of x)) others

(* Incremental bipartite labeling (k = 2, no oracle).  The new nodes
   (ball minus already-revealed) may be disconnected, with pockets touching
   only some of the merging groups, so a single-seed flood is not enough.
   Instead: flood sides through the new nodes from {e every} old contact,
   tagging each new node with the group its side is aligned to; every
   edge joining differently-aligned territory yields a parity constraint
   between two groups.  Solving the (tiny) constraint graph with the base
   group pinned to "no flip" decides which groups and pockets flip. *)
let bipartite_label st (view : V.t) ~new_nodes ~base ~others =
  let groups = (match base with None -> [] | Some b -> [ b ]) @ others in
  let class_count = List.length groups + 1 in
  (* Class indices: 0 .. t for the old groups (0 = base when present), and
     [class_count - 1] is reserved for the fresh-seed class used when
     there is no old group at all. *)
  let class_of_old_member =
    let tbl = Hashtbl.create 16 in
    List.iteri
      (fun i g -> Hashtbl.replace tbl (Uf_dyn.find st.uf (List.hd g.members)) i)
      groups;
    fun x -> Hashtbl.find_opt tbl (Uf_dyn.find st.uf x)
  in
  (* side/cls of each new node, in [st.side]/[st.cls]. *)
  List.iter (fun w -> st.side.(w) <- -1) new_nodes;
  let reached w = st.side.(w) >= 0 in
  (* Parity constraints between classes: (a, b, flip_needed). *)
  let constraints = ref [] in
  let queue = Queue.create () in
  let assign w s c =
    st.side.(w) <- s;
    st.cls.(w) <- c;
    Queue.add w queue
  in
  (* Seed from every contact with an old labeled node. *)
  List.iter
    (fun w ->
      List.iter
        (fun x ->
          if not (is_new st x) then
            match (label_of st x, class_of_old_member x) with
            | lx, Some c when lx >= 0 ->
                if not (reached w) then assign w (1 - lx) c
                else
                  (* Second contact: record the implied constraint. *)
                  constraints := (st.cls.(w), c, st.side.(w) <> 1 - lx) :: !constraints
            | _ -> ())
        (view.V.neighbors w))
    new_nodes;
  (if groups = [] then
     match new_nodes with
     | [] -> ()
     | seed :: _ -> assign seed 0 (class_count - 1));
  while not (Queue.is_empty queue) do
    let w = Queue.pop queue in
    let sw = st.side.(w) and cw = st.cls.(w) in
    List.iter
      (fun x ->
        if is_new st x then
          if not (reached x) then assign x (1 - sw) cw
          else if st.cls.(x) <> cw then
            constraints := (cw, st.cls.(x), st.side.(x) <> 1 - sw) :: !constraints)
      (view.V.neighbors w)
  done;
  (* A pocket of new nodes with no old contact at all cannot exist when
     groups is non-empty: the ball is connected in the host, so each
     pocket borders revealed territory, i.e. some old group. *)
  List.iter
    (fun w ->
      if not (reached w) then
        invalid_arg "kp1: bipartite labeling left a new node unlabeled")
    new_nodes;
  (* Solve the constraint graph; class 0 (the base, or the fresh class) is
     pinned to "no flip". *)
  let adjacency = Array.make class_count [] in
  List.iter
    (fun (a, b, f) ->
      adjacency.(a) <- (b, f) :: adjacency.(a);
      adjacency.(b) <- (a, f) :: adjacency.(b))
    !constraints;
  let flip = Array.make class_count (-1) in
  let cqueue = Queue.create () in
  flip.(0) <- 0;
  Queue.add 0 cqueue;
  if class_count > 1 && groups = [] then flip.(class_count - 1) <- 0;
  while not (Queue.is_empty cqueue) do
    let a = Queue.pop cqueue in
    List.iter
      (fun (b, f) ->
        let want = flip.(a) lxor Bool.to_int f in
        if flip.(b) = -1 then begin
          flip.(b) <- want;
          Queue.add b cqueue
        end
        else if flip.(b) <> want then
          invalid_arg "kp1: inconsistent bipartite contacts (host not bipartite?)")
      adjacency.(a)
  done;
  (* Classes never reached by a constraint path from the base can only
     happen for groups with no effective contact — impossible by
     construction, but default them to "no flip" defensively. *)
  Array.iteri (fun i f -> if f = -1 then flip.(i) <- 0) flip;
  (* Commit the labels of the new nodes, flipping flipped classes. *)
  List.iter
    (fun w ->
      set_label st w (st.side.(w) lxor flip.(st.cls.(w))))
    new_nodes;
  (* Renamings for the other groups follow their class verdicts. *)
  List.mapi (fun i g -> (i + (match base with None -> 0 | Some _ -> 1), g)) others
  |> List.map (fun (class_index, g) ->
         let rho = if flip.(class_index) = 1 then [| 1; 0 |] else [| 0; 1 |] in
         (g, rho))

(* ------------------------------------------------------------------ *)
(* Algorithm 1: swapping two colors of a group via barrier layers       *)
(* ------------------------------------------------------------------ *)

let change_index st (view : V.t) g ~from_color ~to_color ~group_membership =
  (* Commit one layer around X' = the committed nodes of g: part s gets
     the (updated) color of s.  Expands X'. *)
  let ring = ref [] in
  let seen_ring = Hashtbl.create 64 in
  List.iter
    (fun x ->
      List.iter
        (fun w ->
          if (not (is_committed st w)) && not (Hashtbl.mem seen_ring w) then begin
            Hashtbl.replace seen_ring w ();
            ring := w :: !ring
          end)
        (view.V.neighbors x))
    g.committed_nodes;
  List.iter
    (fun w ->
      if not (group_membership w) then st.stats.escapes <- st.stats.escapes + 1;
      let l = label_exn st w in
      let c = if g.type_perm.(l) = from_color then to_color else g.type_perm.(l) in
      commit st w c;
      st.stats.wave_commits <- st.stats.wave_commits + 1)
    !ring;
  Array.iteri
    (fun l c -> if c = from_color then g.type_perm.(l) <- to_color)
    g.type_perm;
  g.committed_nodes <- List.rev_append !ring g.committed_nodes

let swap_colors st view g ~c1 ~c2 ~group_membership =
  st.stats.swaps <- st.stats.swaps + 1;
  change_index st view g ~from_color:c1 ~to_color:st.spare ~group_membership;
  change_index st view g ~from_color:c2 ~to_color:c1 ~group_membership;
  change_index st view g ~from_color:st.spare ~to_color:c2 ~group_membership

(* ------------------------------------------------------------------ *)
(* The per-step driver                                                  *)
(* ------------------------------------------------------------------ *)

let initial_type st ~target_label =
  (* Any permutation assigning color 0 to the target's part. *)
  let p = Array.make st.k (-1) in
  p.(target_label) <- 0;
  let next = ref 1 in
  Array.iteri
    (fun l c ->
      if c < 0 then begin
        p.(l) <- !next;
        incr next
      end)
    p;
  p

let group_of st h = find_group st (Uf_dyn.find st.uf h)

let union_all st (view : V.t) ~new_nodes ~merged =
  List.iter
    (fun w ->
      List.iter (fun x -> ignore (Uf_dyn.union st.uf w x)) (view.V.neighbors w))
    new_nodes;
  match new_nodes with
  | [] -> ()
  | w :: _ ->
      st.groups.(Uf_dyn.find st.uf w) <- merged

let step st (view : V.t) =
  let target = view.V.target in
  let new_nodes = view.V.new_nodes in
  st.stamp <- st.stamp + 1;
  List.iter
    (fun h ->
      Uf_dyn.ensure st.uf h;
      ensure st h;
      st.fresh_at.(h) <- st.stamp)
    new_nodes;
  Uf_dyn.ensure st.uf target;
  ensure st target;
  (* Old groups adjacent to the new ball. *)
  let old_roots = Hashtbl.create 8 in
  List.iter
    (fun w ->
      List.iter
        (fun x ->
          if not (is_new st x) then Hashtbl.replace old_roots (Uf_dyn.find st.uf x) ())
        (view.V.neighbors w))
    new_nodes;
  let roots = Hashtbl.fold (fun r () acc -> r :: acc) old_roots [] in
  let old_groups = List.map (find_group st) roots in
  let sorted =
    (* The paper rewrites the smaller groups to match the largest; the
       `Larger ablation deliberately inverts the choice, breaking the
       log n bound on per-node type changes. *)
    match st.flip with
    | `Smaller -> List.sort (fun a b -> compare b.size a.size) old_groups
    | `Larger -> List.sort (fun a b -> compare a.size b.size) old_groups
  in
  (match (sorted, new_nodes) with
  | [], [] -> ()  (* nothing new: target's group already exists *)
  | [], _ :: _ ->
      (* Case 1: a brand-new group. *)
      let renames =
        match st.strategy with
        | Oracle_reps -> oracle_label st view ~new_nodes ~base:None ~others:[]
        | Bipartite_incremental ->
            bipartite_label st view ~new_nodes ~base:None ~others:[]
      in
      assert (renames = []);
      let g =
        {
          members = new_nodes;
          committed_nodes = [];
          type_perm = initial_type st ~target_label:(label_exn st target);
          reps = Array.make st.k (-1);
          size = List.length new_nodes;
        }
      in
      List.iter (fun h -> if g.reps.(label_exn st h) < 0 then g.reps.(label_exn st h) <- h) new_nodes;
      List.iter (fun r -> st.groups.(r) <- no_group) roots;
      union_all st view ~new_nodes ~merged:g;
      st.stats.largest_group <- max st.stats.largest_group g.size
  | base :: others, _ ->
      (* Cases 2 and 3: merge into the largest adjacent group. *)
      if others <> [] then st.stats.merges <- st.stats.merges + 1;
      let renames =
        match st.strategy with
        | Oracle_reps -> oracle_label st view ~new_nodes ~base:(Some base) ~others
        | Bipartite_incremental ->
            bipartite_label st view ~new_nodes ~base:(Some base) ~others
      in
      (* Relabel the smaller groups into the base label space, then unify
         their types by color swaps (Algorithm 1). *)
      List.iter
        (fun (x, rho) ->
          List.iter
            (fun v -> st.label.(v) <- rho.(label_exn st v))
            x.members;
          let reps' = Array.make st.k (-1) in
          Array.iteri (fun l rep -> if rep >= 0 then reps'.(rho.(l)) <- rep) x.reps;
          x.reps <- reps';
          let perm' = Array.make st.k (-1) in
          Array.iteri (fun l c -> perm'.(rho.(l)) <- c) x.type_perm;
          x.type_perm <- perm';
          if x.type_perm <> base.type_perm && x.committed_nodes <> [] then begin
            st.stats.type_changes <- st.stats.type_changes + 1;
            let membership = Hashtbl.create (x.size * 2 + 1) in
            List.iter (fun v -> Hashtbl.replace membership v ()) x.members;
            let swaps =
              Colorings.Perm.transposition_decomposition
                ~src:(Colorings.Perm.of_array x.type_perm)
                ~dst:(Colorings.Perm.of_array base.type_perm)
            in
            List.iter
              (fun (c1, c2) ->
                swap_colors st view x ~c1 ~c2
                  ~group_membership:(fun v -> Hashtbl.mem membership v))
              swaps;
            if x.type_perm <> base.type_perm then
              invalid_arg "kp1: swap sequence failed to unify types"
          end
          else x.type_perm <- Array.copy base.type_perm)
        renames;
      (* Fold everything into the base record. *)
      List.iter
        (fun (x, _) ->
          base.members <- List.rev_append x.members base.members;
          base.committed_nodes <- List.rev_append x.committed_nodes base.committed_nodes;
          Array.iteri (fun l rep -> if base.reps.(l) < 0 && rep >= 0 then base.reps.(l) <- rep) x.reps;
          base.size <- base.size + x.size)
        renames;
      base.members <- List.rev_append new_nodes base.members;
      base.size <- base.size + List.length new_nodes;
      List.iter
        (fun h -> if base.reps.(label_exn st h) < 0 then base.reps.(label_exn st h) <- h)
        new_nodes;
      List.iter (fun r -> st.groups.(r) <- no_group) roots;
      union_all st view ~new_nodes ~merged:base;
      st.stats.largest_group <- max st.stats.largest_group base.size);
  (* Color the target according to its group's type, unless a barrier
     already committed it. *)
  (if not (is_committed st target) then begin
     let g = group_of st target in
     let color = g.type_perm.(label_exn st target) in
     commit st target color;
     g.committed_nodes <- target :: g.committed_nodes
   end
   else begin
     (* Track it as committed within its group bookkeeping already. *)
     ()
   end);
  st.committed.(target)

let make_internal ~k ~locality ~flip ~stats ~strategy ~name =
  if k < 2 then invalid_arg "kp1: k must be >= 2";
  {
    Models.Algorithm.name;
    locality;
    instantiate =
      (fun ~n:_ ~palette ~oracle ->
        if palette < k + 1 then invalid_arg "kp1: palette must have k+1 colors";
        (match (strategy, oracle) with
        | Oracle_reps, None -> invalid_arg "kp1: partition oracle required"
        | Oracle_reps, Some o ->
            if o.Models.Oracle.parts <> k then invalid_arg "kp1: oracle parts <> k"
        | Bipartite_incremental, _ -> ());
        let st =
          {
            k;
            spare = k;
            flip;
            strategy;
            oracle;
            uf = Uf_dyn.create ();
            groups = Array.make 16 no_group;
            label = Array.make 16 (-1);
            committed = Array.make 16 (-1);
            fresh_at = Array.make 16 0;
            stamp = 0;
            side = Array.make 16 (-1);
            cls = Array.make 16 0;
            stats;
          }
        in
        fun view -> step st view);
  }

let make ?locality ?(flip = `Smaller) ?stats ~k () =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let locality =
    match locality with Some f -> f | None -> fun ~n -> default_locality ~k ~n
  in
  make_internal ~k ~locality ~flip ~stats ~strategy:Oracle_reps
    ~name:(Printf.sprintf "kp1-coloring(k=%d)" k)

let ael_bipartite ?locality ?stats () =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let locality =
    match locality with Some f -> f | None -> fun ~n -> default_locality ~k:2 ~n
  in
  make_internal ~k:2 ~locality ~flip:`Smaller ~stats ~strategy:Bipartite_incremental
    ~name:"ael-3coloring-bipartite"
