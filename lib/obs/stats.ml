(* Exact-integer accumulator state.  The sum of squares is kept as two
   limbs in base 2^61: a clamped value squares to < 2^60, so the low
   limb plus one square stays under 2^62 — inside OCaml's 63-bit native
   int — and the merge (add limbs, propagate one carry) is exactly
   commutative and associative — the property the whole determinism
   contract rests on.  (Base 2^62 would be tidier but [1 lsl 62] is
   [min_int] on a 63-bit int.) *)

let limb_base = 1 lsl 61
let clamp_max = 0x3FFFFFFF (* 2^30 - 1: largest magnitude safe to square *)

type series = {
  n : int;
  sum : int;
  sq_hi : int;
  sq_lo : int;
  min_v : int;
  max_v : int;
  sketch : (int * int) list;
}

type snapshot = (string * series) list

(* HDR-style sketch: exact buckets 0..7, then 8 sub-buckets (3 mantissa
   bits) per octave.  480 buckets cover every nonnegative int. *)
let n_sketch = 480

let bit_length v =
  let b = ref 0 and n = ref v in
  while !n > 0 do
    incr b;
    n := !n lsr 1
  done;
  !b

let sketch_index v =
  if v <= 0 then 0
  else if v < 8 then v
  else begin
    let e = bit_length v in
    ((e - 4) * 8) + (v lsr (e - 4))
  end

let sketch_value idx =
  if idx <= 0 then 0
  else if idx < 8 then idx
  else (8 + (idx mod 8)) lsl ((idx / 8) - 1)

type acc = {
  mutable a_n : int;
  mutable a_sum : int;
  mutable a_sq_hi : int;
  mutable a_sq_lo : int;
  mutable a_min : int;
  mutable a_max : int;
  a_sketch : int array;
}

let fresh_acc () =
  {
    a_n = 0;
    a_sum = 0;
    a_sq_hi = 0;
    a_sq_lo = 0;
    a_min = max_int;
    a_max = min_int;
    a_sketch = Array.make n_sketch 0;
  }

let record acc v =
  acc.a_n <- acc.a_n + 1;
  acc.a_sum <- acc.a_sum + v;
  let m =
    let a = abs v in
    if a < 0 || a > clamp_max then clamp_max else a
  in
  let sq = m * m in
  let lo = acc.a_sq_lo + sq in
  if lo >= limb_base then begin
    acc.a_sq_lo <- lo - limb_base;
    acc.a_sq_hi <- acc.a_sq_hi + 1
  end
  else acc.a_sq_lo <- lo;
  if v < acc.a_min then acc.a_min <- v;
  if v > acc.a_max then acc.a_max <- v;
  let b = sketch_index v in
  acc.a_sketch.(b) <- acc.a_sketch.(b) + 1

(* Merge a series into an accumulator: the Chan identities over exact
   sums (counts, sums and buckets add; the carry keeps the square sum
   exact). *)
let merge_series_into acc (s : series) =
  if s.n > 0 then begin
    acc.a_n <- acc.a_n + s.n;
    acc.a_sum <- acc.a_sum + s.sum;
    let lo = acc.a_sq_lo + s.sq_lo in
    let carry = if lo >= limb_base then 1 else 0 in
    acc.a_sq_lo <- (if carry = 1 then lo - limb_base else lo);
    acc.a_sq_hi <- acc.a_sq_hi + s.sq_hi + carry;
    if s.min_v < acc.a_min then acc.a_min <- s.min_v;
    if s.max_v > acc.a_max then acc.a_max <- s.max_v;
    List.iter
      (fun (i, c) ->
        if i >= 0 && i < n_sketch then acc.a_sketch.(i) <- acc.a_sketch.(i) + c)
      s.sketch
  end

let series_of_acc acc =
  let sketch = ref [] in
  for i = n_sketch - 1 downto 0 do
    if acc.a_sketch.(i) > 0 then sketch := (i, acc.a_sketch.(i)) :: !sketch
  done;
  {
    n = acc.a_n;
    sum = acc.a_sum;
    sq_hi = acc.a_sq_hi;
    sq_lo = acc.a_sq_lo;
    min_v = acc.a_min;
    max_v = acc.a_max;
    sketch = !sketch;
  }

(* ----------------------------- registry ----------------------------- *)

let enabled = ref false
let on () = !enabled
let enable () = enabled := true
let disable () = enabled := false

(* Everything this process recorded or absorbed.  Inside {!scoped},
   recording goes to the scope's own table instead. *)
let table : (string, acc) Hashtbl.t = Hashtbl.create 32
let scope : (string, acc) Hashtbl.t option ref = ref None

let reset () = Hashtbl.reset table

let find_acc tbl name =
  match Hashtbl.find_opt tbl name with
  | Some acc -> acc
  | None ->
      let acc = fresh_acc () in
      Hashtbl.replace tbl name acc;
      acc

let observe name v =
  if !enabled then
    record (find_acc (match !scope with Some tbl -> tbl | None -> table) name) v

let snapshot_of_tbl tbl =
  Hashtbl.fold (fun k acc l -> (k, series_of_acc acc) :: l) tbl []
  |> List.filter (fun (_, s) -> s.n > 0)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------ codec ------------------------------ *)

let to_string (snap : snapshot) =
  let series_json (name, s) =
    Json.Obj
      [
        ("k", Json.String name);
        ("n", Json.Int s.n);
        ("s", Json.Int s.sum);
        ("qh", Json.Int s.sq_hi);
        ("ql", Json.Int s.sq_lo);
        ("lo", Json.Int s.min_v);
        ("hi", Json.Int s.max_v);
        ( "b",
          Json.List
            (List.map
               (fun (i, c) -> Json.List [ Json.Int i; Json.Int c ])
               s.sketch) );
      ]
  in
  Json.to_string (Json.List (List.map series_json snap))

let of_string str =
  let req j k =
    match Json.member k j with
    | Some v -> (
        match Json.to_int_opt v with
        | Some n -> n
        | None -> raise (Json.Parse_error ("stats snapshot: bad field " ^ k)))
    | None -> raise (Json.Parse_error ("stats snapshot: missing field " ^ k))
  in
  let series j =
    let name =
      match Json.member "k" j with
      | Some (Json.String s) -> s
      | _ -> raise (Json.Parse_error "stats snapshot: missing series name")
    in
    let sketch =
      match Json.member "b" j with
      | Some (Json.List l) ->
          List.map
            (function
              | Json.List [ Json.Int i; Json.Int c ] -> (i, c)
              | _ -> raise (Json.Parse_error "stats snapshot: bad bucket"))
            l
      | _ -> raise (Json.Parse_error "stats snapshot: missing buckets")
    in
    ( name,
      {
        n = req j "n";
        sum = req j "s";
        sq_hi = req j "qh";
        sq_lo = req j "ql";
        min_v = req j "lo";
        max_v = req j "hi";
        sketch;
      } )
  in
  match Json.of_string str with
  | Json.List l -> Ok (List.map series l)
  | _ -> Error "stats snapshot: expected a list"
  | exception Json.Parse_error msg -> Error msg

(* ------------------------------ merge ------------------------------ *)

let merge_into_tbl tbl (snap : snapshot) =
  List.iter (fun (name, s) -> merge_series_into (find_acc tbl name) s) snap

let merge a b =
  let tbl = Hashtbl.create 16 in
  merge_into_tbl tbl a;
  merge_into_tbl tbl b;
  snapshot_of_tbl tbl

let absorb (snap : snapshot) = merge_into_tbl table snap

let absorb_string str =
  if str = "" then Ok ()
  else match of_string str with Ok snap -> absorb snap; Ok () | Error e -> Error e

let scoped f =
  if not !enabled then (f (), "")
  else begin
    let saved = !scope in
    let tbl = Hashtbl.create 8 in
    scope := Some tbl;
    let x = Fun.protect ~finally:(fun () -> scope := saved) f in
    let snap = snapshot_of_tbl tbl in
    (* The scope's contribution still counts toward this process's own
       drain — only the encoded delta travels to checkpoints. *)
    if !enabled then merge_into_tbl (Option.value saved ~default:table) snap;
    (x, if snap = [] then "" else to_string snap)
  end

let drain () = snapshot_of_tbl table

(* ----------------------------- derived ----------------------------- *)

let mean s = if s.n = 0 then 0.0 else float_of_int s.sum /. float_of_int s.n

let variance s =
  if s.n < 2 then 0.0
  else begin
    let sq =
      (float_of_int s.sq_hi *. float_of_int limb_base) +. float_of_int s.sq_lo
    in
    let sum = float_of_int s.sum in
    let n = float_of_int s.n in
    Float.max 0.0 ((sq -. (sum *. sum /. n)) /. (n -. 1.0))
  end

let stddev s = sqrt (variance s)

let quantile s ~num ~den =
  if s.n = 0 then 0
  else begin
    let rank = ((s.n * num) + den - 1) / den in
    let rank = if rank < 1 then 1 else rank in
    let rec go cum = function
      | [] -> sketch_value (n_sketch - 1)
      | (i, c) :: rest -> if cum + c >= rank then sketch_value i else go (cum + c) rest
    in
    go 0 s.sketch
  end

let pp ppf (snap : snapshot) =
  if snap = [] then Format.fprintf ppf "(no stats recorded)@."
  else begin
    Format.fprintf ppf "stats:@.";
    List.iter
      (fun (name, s) ->
        Format.fprintf ppf
          "  %-32s count=%d mean=%.2f stddev=%.2f min=%d max=%d p50=%d p90=%d \
           p99=%d@."
          name s.n (mean s) (stddev s) s.min_v s.max_v
          (quantile s ~num:1 ~den:2)
          (quantile s ~num:9 ~den:10)
          (quantile s ~num:99 ~den:100))
      snap
  end

let snapshot_to_json (snap : snapshot) =
  let series_json (name, s) =
    ( name,
      Json.Obj
        [
          ("count", Json.Int s.n);
          ("mean", Json.Float (mean s));
          ("variance", Json.Float (variance s));
          ("stddev", Json.Float (stddev s));
          ("min", Json.Int s.min_v);
          ("max", Json.Int s.max_v);
          ("p50", Json.Int (quantile s ~num:1 ~den:2));
          ("p90", Json.Int (quantile s ~num:9 ~den:10));
          ("p99", Json.Int (quantile s ~num:99 ~den:100));
          ("sum", Json.Int s.sum);
          ("sq_hi", Json.Int s.sq_hi);
          ("sq_lo", Json.Int s.sq_lo);
          ( "sketch",
            Json.List
              (List.map
                 (fun (i, c) ->
                   Json.Obj
                     [
                       ("lo", Json.Int (sketch_value i)); ("count", Json.Int c);
                     ])
                 s.sketch) );
        ] )
  in
  Json.Obj [ ("stats", Json.Obj (List.map series_json snap)) ]
