(* One event per constructor of [Obs.Trace.event], in declaration order,
   shared by the NDJSON and flight codec tests and the codec golden.
   Field values exercise negatives, zeros, both option states, floats
   and control bytes (tab, newline, NUL) in strings.  Floats are dyadic
   so their six-decimal NDJSON rendering is exact.  A constructor added
   to the type without a line here fails [test_trace]'s coverage check. *)

module T = Obs.Trace

let all_events : T.event list =
  [
    T.Trace_header { version = T.version; program = "test" };
    T.Cell_start { key = "k space\ttab" };
    T.Cell_finish { key = "t=1 k=6"; status = "ok" };
    T.Checkpoint_flush { key = "t=1 k=6"; bytes = 0 };
    T.Game_start
      {
        adversary = "thm1-grid";
        algorithm = "greedy";
        n = 400;
        max_color_calls = Some 12;
        max_work = None;
        deadline = Some 1.5;
      };
    T.Game_verdict
      {
        adversary = "thm1-grid";
        algorithm = "greedy";
        n = 400;
        outcome = "DEFEATED";
        guaranteed = true;
        color_calls = 41;
        work = 1234;
      };
    T.Step { executor = "virtual_grid"; step = 7; target = -1; revealed = 99 };
    T.Audit { executor = "fixed_host"; ok = false; detail = "monochromatic edge 0 -- 1" };
    T.Fault_injected { tag = "wrong-color"; call = 9 };
    T.Misbehavior { label = "budget"; detail = "line1\nline2\x00nul" };
    T.Child_spawn { key = "cell"; pid = 4242; attempt = 2 };
    T.Child_kill { key = "cell"; pid = 4242; signal = "sigkill"; elapsed = 0.25 };
    T.Child_exit
      { key = "cell"; pid = 4242; status = "signal:KILL"; cpu_user = 0.5; cpu_sys = 0.125 };
    T.Cell_retry { key = "cell"; attempt = 1; delay = 0.0625 };
    T.Cell_quarantined { key = "cell"; attempts = 3; reason = "kept dying" };
    T.Server_start { socket = "/tmp/x.sock"; jobs = 2; queue_limit = 64 };
    T.Conn_open { conn = 11 };
    T.Conn_close { conn = 11; reason = "eof" };
    T.Job_submit { id = "abc123"; kind = "thm1"; disposition = "new" };
    T.Job_reject { id = "abc123"; queued = 64; limit = 64 };
    T.Job_start { id = "abc123"; attempt = 0 };
    T.Job_done { id = "abc123"; status = "ok" };
    T.Server_drain { queued = 0; running = 2 };
    T.Chaos_injected { kind = "drop_conn" };
    T.Canon_hit { kind = "step"; key = "h\x00ash" };
    T.Journal_corrupt { path = "/tmp/j.journal"; line = 3; reason = "crc 0 != 1" };
  ]
