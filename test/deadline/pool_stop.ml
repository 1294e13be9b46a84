(* A pool worker whose [Worker_stop] emission raises after a cell failed
   must still let [Pool.run] return, with the cell's exception, rather
   than leave the consumer waiting for it; the dune rule runs this under
   a timeout so a hang fails the build. *)

let () =
  Obs.Trace.set_hook
    (Some (function Obs.Trace.Worker_stop _ -> failwith "hook" | _ -> ()));
  match
    Harness.Pool.run ~jobs:2 ~tasks:4
      ~work:(fun i -> if i = 1 then failwith "cell" else i)
      ~consume:(fun _ _ -> ())
  with
  | () ->
      prerr_endline "pool_stop: the failed cell was not reported";
      exit 1
  | exception Failure msg when msg = "cell" -> ()
  | exception e ->
      prerr_endline ("pool_stop: unexpected exception " ^ Printexc.to_string e);
      exit 1
