(** The differential fuzz targets behind [bin/fuzz.exe].

    Each target packages one generator, one printer and one property
    whose failure is a genuine bug somewhere in the engine:

    {ul
    {- [proper-vs-brute] — the exhaustive coloring solver against an
       independent propriety checker and its own counting/existence
       faces;}
    {- [bvalue-cancel] — Lemmas 3.3-3.5 on random proper colorings of
       random grids and random rectangle cycles;}
    {- [thm1-game], [thm2-game], [thm3-game] — adversary-vs-portfolio
       verdict invariants, with and without injected faults: an honest
       adversary never yields [Adversary_fault], a theory-guaranteed
       honest game never yields [Survived], and a first-call
       out-of-palette/raise/spin fault always yields
       [Algorithm_fault];}
    {- [sweep-resume] — checkpoint/resume byte-identity of
       {!Harness.Sweep} under random cell sets, random failures and
       random checkpoint truncation;}
    {- [sweep-kill] — a process-isolated sweep ([`Process] isolation)
       whose victim cell SIGKILLs its own worker at randomized timing
       must, after the supervisor's retry, print bytes identical to an
       unkilled run;}
    {- [wire-codec] — the {!Harness.Wire} framing codec under
       truncation, bit flips, forged length prefixes and byte-at-a-time
       chunking: typed errors only, never an exception, and a forged
       declared length can never drive an allocation;}
    {- [view-incremental] — the {!Models.Fixed_host} executor core:
       incremental {!Grid_graph.Bfs.Frontier} reveals against a batch
       ball-and-filter reference must agree on every per-step fresh-node
       list;}
    {- [demo-bug] — a deliberately broken property (list sums stay
       below 100), armed only when [FUZZ_DEMO_BUG=1]: the CI probe that
       shrinking and replay actually work end-to-end.}} *)

type packed =
  | Packed : {
      gen : 'a Gen.t;
      print : 'a -> string;
      prop : 'a -> bool;
    }
      -> packed

type t = {
  name : string;
  doc : string;
  max_cases : int option;
      (** cap on the per-target case budget, for targets whose single
          case is itself a whole sweep *)
  available : unit -> (unit, string) result;
      (** [Error reason] skips the target (reported, not failed) *)
  packed : packed;
}

val all : t list
(** Every target, [demo-bug] included. *)

val default_names : string list
(** The names run when no [--targets] is given: everything except
    [demo-bug]. *)

val find : string -> t option
