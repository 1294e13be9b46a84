(* The benchmark's own span recorder, quantiles and JSON printing.

   Spans are recorded from the benchmark's files, around calls into
   each layer's public functions, and kept in memory until the run
   writes them out.  Calls below a game span (algorithm color calls,
   view accessors) are far too many to keep one by one; they are
   counted on the enclosing game span as call counts and nanoseconds.

   All timings use CLOCK_MONOTONIC in integer nanoseconds.  Quantiles
   come from sorted arrays here, not from the library's Obs.Stats. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_of_ns ns = float_of_int ns /. 1e9

type span = {
  idx : int;
  name : string;
  id : string;
  parent : int;  (** [idx] of the enclosing span, -1 at the root *)
  start_ns : int;
  stop_ns : int;
  mutable counters : (string * int) list;
}

let on = ref false
let next = ref 0
let stack = ref []
let closed : span list ref = ref []

let reset () =
  next := 0;
  stack := [];
  closed := []

let with_span name ~id f =
  if not !on then f ()
  else begin
    let idx = !next in
    incr next;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := idx :: !stack;
    let start_ns = now_ns () in
    let finish () =
      let stop_ns = now_ns () in
      stack := List.tl !stack;
      closed := { idx; name; id; parent; start_ns; stop_ns; counters = [] } :: !closed
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Attach counters to the span that closed last. *)
let annotate counters =
  match !closed with s :: _ -> s.counters <- counters @ s.counters | [] -> ()

let counter s name = Option.value (List.assoc_opt name s.counters) ~default:0
let duration s = s.stop_ns - s.start_ns

(* Recorded spans in start order. *)
let recorded () = List.sort (fun a b -> compare a.idx b.idx) !closed

(* Self time of every span: its duration minus its direct children's
   durations, minus the nanoseconds it counted below itself. *)
let self_ns spans ~below =
  let n = List.fold_left (fun m s -> max m (s.idx + 1)) 0 spans in
  let children = Array.make n 0 in
  List.iter
    (fun s -> if s.parent >= 0 then children.(s.parent) <- children.(s.parent) + duration s)
    spans;
  List.map (fun s -> (s, duration s - children.(s.idx) - below s)) spans

(* ------------------------------ quantiles ----------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles by the "exclusive" method of Python's
   statistics.quantiles(values, n=4), the definition the spread checks
   use.  A single value is its own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

(* Nearest-rank percentile of a sorted array. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* The highest whole percentile that leaves at least ten samples beyond
   it (50 when there are too few samples for any), and its value. *)
let tail a =
  let n = Array.length a in
  let beyond p = n - int_of_float (Float.ceil (float_of_int p /. 100. *. float_of_int n)) in
  let rec go p = if p <= 50 then 50 else if beyond p >= 10 then p else go (p - 1) in
  let p = go 99 in
  (p, percentile a (float_of_int p))

(* -------------------------------- JSON -------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit a double carries. *)
let json_float f =
  if not (Float.is_finite f) then invalid_arg "json_float: not finite"
  else Printf.sprintf "%.17g" f

let json_fields fields =
  String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)

let json_obj fields = "{" ^ json_fields fields ^ "}"

(* One JSON file holding [meta] and every recorded span. *)
let write ~path ~meta spans =
  Out_channel.with_open_bin path @@ fun oc ->
  Out_channel.output_string oc ("{" ^ json_fields meta ^ ", \"spans\": [\n");
  List.iteri
    (fun i s ->
      if i > 0 then Out_channel.output_string oc ",\n";
      Out_channel.output_string oc
        (json_obj
           [
             ("name", json_string s.name);
             ("id", json_string s.id);
             ("idx", string_of_int s.idx);
             ("parent", string_of_int s.parent);
             ("start_ns", string_of_int s.start_ns);
             ("end_ns", string_of_int s.stop_ns);
             ("counters", json_obj (List.map (fun (k, v) -> (k, string_of_int v)) s.counters));
           ]))
    spans;
  Out_channel.output_string oc "\n]}\n"
