(* Print every constructor's NDJSON line and flight frame (hex) at a
   fixed envelope, one pair per event in declaration order, so
   [trace_codec.expected] pins the bytes of both trace formats. *)

let () =
  List.iteri
    (fun idx ev ->
      let r = { Obs.Trace.i = 200 + idx; w = 3; ts = 0.5 +. float_of_int idx; ev } in
      print_endline (Obs.Trace.record_to_string r);
      String.iter (fun c -> Printf.printf "%02x" (Char.code c)) (Obs.Flight.frame r);
      print_newline ())
    Trace_fixture.all_events
