module A = Models.Algorithm

(* Every combinator reports the calls at which it actually fires, so a
   trace distinguishes "fault armed" (visible in the algorithm name)
   from "fault delivered". *)
let injected ~tag ~call =
  if Obs.Trace.on () then Obs.Trace.emit (Obs.Trace.Fault_injected { tag; call })

let wrap ~tag algo transform =
  {
    algo with
    A.name = Printf.sprintf "%s(%s)" tag algo.A.name;
    instantiate =
      (fun ~n ~palette ~oracle ->
        transform ~palette (algo.A.instantiate ~n ~palette ~oracle));
  }

let counting transform = fun ~palette inst ->
  let calls = ref 0 in
  fun view ->
    incr calls;
    transform ~palette ~call:!calls inst view

let wrong_color ~every algo =
  if every < 1 then invalid_arg "Faults.wrong_color: every must be >= 1";
  wrap ~tag:(Printf.sprintf "wrong-color@%d" every) algo
    (counting (fun ~palette ~call inst view ->
         let c = inst view in
         if call mod every = 0 then begin
           injected ~tag:"wrong-color" ~call;
           (c + 1) mod palette
         end
         else c))

let out_of_palette ?color ~at_step algo =
  wrap ~tag:(Printf.sprintf "out-of-palette@%d" at_step) algo
    (counting (fun ~palette ~call inst view ->
         if call = at_step then begin
           injected ~tag:"out-of-palette" ~call;
           Option.value color ~default:palette
         end
         else inst view))

let raise_at ?(message = "injected fault") ~step algo =
  wrap ~tag:(Printf.sprintf "raise@%d" step) algo
    (counting (fun ~palette:_ ~call inst view ->
         if call = step then begin
           injected ~tag:"raise" ~call;
           failwith message
         end
         else inst view))

let spin ~steps algo =
  wrap ~tag:(Printf.sprintf "spin@%d" steps) algo
    (counting (fun ~palette:_ ~call inst view ->
         if call >= steps then begin
           injected ~tag:"spin" ~call;
           while true do
             Guard.tick ()
           done
         end;
         inst view))

let amnesia algo =
  {
    algo with
    A.name = Printf.sprintf "amnesia(%s)" algo.A.name;
    instantiate =
      (fun ~n ~palette ~oracle ->
        (* A fresh instance per color call: the unbounded global memory
           of the Online-LOCAL model is dropped on the floor. *)
        let calls = ref 0 in
        fun view ->
          incr calls;
          injected ~tag:"amnesia" ~call:!calls;
          algo.A.instantiate ~n ~palette ~oracle view);
  }

let chaos_oracle ~seed oracle =
  let parts = oracle.Models.Oracle.parts in
  let queries = ref 0 in
  {
    oracle with
    Models.Oracle.query =
      (fun view handles ->
        (* Copy before perturbing: the wrapped oracle may hand out a
           shared or cached buffer, and the injected fault must corrupt
           the answer, not the oracle's own state. *)
        incr queries;
        let raw = Array.copy (oracle.Models.Oracle.query view handles) in
        let corrupted = ref false in
        List.iteri
          (fun i h ->
            if (h + seed) mod 2 = 0 then begin
              corrupted := true;
              raw.(i) <- (raw.(i) + 1) mod parts
            end)
          handles;
        if !corrupted then injected ~tag:"chaos-oracle" ~call:!queries;
        raw);
  }

let algorithm_faults =
  [
    (* every:2, not every:1 — shifting EVERY answer by +1 mod palette is
       a color permutation, which turns a proper strategy into another
       proper strategy; alternating actually corrupts. *)
    ("wrong-color", fun algo -> wrong_color ~every:2 algo);
    ("out-of-palette", fun algo -> out_of_palette ~at_step:1 algo);
    ("raise", fun algo -> raise_at ~step:1 algo);
    ("spin", fun algo -> spin ~steps:1 algo);
    ("amnesia", amnesia);
  ]
