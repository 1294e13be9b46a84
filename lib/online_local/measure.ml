open Grid_graph

let succeeds ~host ~palette ~orders ~make ?oracle ?hints t =
  List.for_all
    (fun order ->
      (* A crashing run is a failed run, not an aborted sweep. *)
      let guard = Harness.Guard.create ~limits:Harness.Guard.no_limits () in
      match
        Harness.Guard.capture guard (fun () ->
            Models.Fixed_host.run ?oracle ?hints ~host ~palette ~algorithm:(make ~t)
              ~order ())
      with
      | Ok outcome -> Models.Run_stats.succeeded outcome ~colors:palette ~host
      | Error _ -> false)
    orders

let min_locality_for_success ~host ~palette ~orders ~make ?oracle ?hints ~t_max () =
  let ok t = succeeds ~host ~palette ~orders ~make ?oracle ?hints t in
  if not (ok t_max) then None
  else begin
    (* Success is monotone for the Theorem 4 algorithm (a larger T only
       enlarges groups); binary search, then confirm the boundary. *)
    let lo = ref 1 and hi = ref t_max in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ok mid then hi := mid else lo := mid + 1
    done;
    if ok !lo then Some !lo else None
  end

let adversarial_orders ~host ~seeds =
  let n = Graph.n host in
  let sequential = List.init n (fun i -> i) in
  let two_ends =
    (* Interleave from both ends so the last merges join the two largest
       groups. *)
    let rec go lo hi acc =
      if lo > hi then List.rev acc
      else if lo = hi then List.rev (lo :: acc)
      else go (lo + 1) (hi - 1) (hi :: lo :: acc)
    in
    go 0 (n - 1) []
  in
  let bit_reversal =
    (* Present nodes in bit-reversed index order: groups form spread out
       and merge pairwise bottom-up, maximizing the merge-tree depth any
       single node participates in — the worst case for the Theorem 4
       flip budget. *)
    let bits =
      let rec go b = if 1 lsl b >= n then b else go (b + 1) in
      go 0
    in
    let reverse i =
      let r = ref 0 in
      for b = 0 to bits - 1 do
        if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
      done;
      !r
    in
    List.init (1 lsl bits) reverse |> List.filter (fun i -> i < n)
  in
  (sequential :: two_ends :: bit_reversal
   :: List.map (fun seed -> Models.Fixed_host.orders ~all:host (`Random seed)) seeds)

let min_defeating_b ~n_side ~algorithm ~k_max =
  let rec go k =
    if k > k_max then None
    else
      let guard = Harness.Guard.create ~limits:Harness.Guard.no_limits () in
      match
        Harness.Guard.capture guard (fun () ->
            Thm1_adversary.run ~n_side ~k ~algorithm:(algorithm ()) ())
      with
      (* A construction wider than the host is not a defeat on it. *)
      | Ok { Thm1_adversary.result; fits = true; _ }
        when Verdict.classify None (Ok result) = Verdict.Defeated ->
          Some k
      | Ok _ | Error _ -> go (k + 1)
  in
  go 1
