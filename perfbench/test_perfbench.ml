(* Checks of the benchmark's own instruments:
   - transparency: each workload's sim leg, shortened, gives the same
     ops, makespan and avg_unreclaimed through both timing wrappers as
     [Runner_sim] gives without them;
   - attribution: the traced sim leg's op spans cover at most the
     workers' cycles, and with the unwound residue nearly all of them;
   - on Domains, two workers' spans land on their own slots, from their
     own domains, with monotone timestamps;
   - the output gate rejects malformed map contents;
   - the reference load runs. *)

open Perfbench

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let transparency () =
  List.iter
    (fun (w : Legs.workload) ->
      let w = { w with sim_horizon = 60_000 } in
      List.iter
        (fun scheme ->
          let plain =
            Option.get
              (Ibr_harness.Runner_sim.run_named ~tracker_name:scheme
                 ~ds_name:w.ds (Legs.sim_config w ~seed:11))
          in
          let leg = Legs.run w ~scheme ~backend:Legs.Sim ~traced:true ~seed:11 in
          let name = Printf.sprintf "%s %s" w.name scheme in
          check (name ^ ": wrapped sim leg is bit-identical")
            (plain.ops = leg.stats.ops
             && plain.makespan = leg.stats.makespan
             && plain.avg_unreclaimed = leg.stats.avg_unreclaimed);
          check (name ^ ": passes the output gate") (leg.failed = 0);
          let cycles = float_of_int leg.worker_cycles in
          let share = float_of_int leg.total.op_time /. cycles in
          let residue = float_of_int leg.residue /. cycles in
          check
            (Printf.sprintf "%s: op spans %.3f + unwound %.3f of worker cycles"
               name share residue)
            (share > 0.5 && share +. residue <= 1.0 && share +. residue > 0.9))
        Legs.schemes)
    Legs.workloads

let domains_spans () =
  let w = Option.get (Legs.find "write-hashmap") in
  let leg =
    Legs.run w ~scheme:"2GEIBR" ~backend:(Legs.Domains 0.2) ~traced:true ~seed:3
  in
  let a = leg.accs.(0) and b = leg.accs.(1) in
  let main = (Domain.self () :> int) in
  check "two domains' spans land on their own slots"
    (a.ops > 0 && b.ops > 0 && a.reads > 0 && b.reads > 0
     && a.domain <> b.domain && a.domain <> main && b.domain <> main
     && a.foreign = 0 && b.foreign = 0);
  check "span timestamps are monotone per slot"
    (a.backwards = 0 && b.backwards = 0 && a.gap_time >= 0 && b.gap_time >= 0);
  check "the domains leg passes the output gate" (leg.failed = 0)

let gate () =
  let ok = Timed.entries_ok ~lo:0 ~hi:9 in
  check "gate accepts sorted, unique, in-range entries"
    (ok [ (0, 0); (4, 4); (9, 9) ]);
  check "gate rejects duplicates" (not (ok [ (1, 1); (1, 1) ]));
  check "gate rejects unsorted entries" (not (ok [ (4, 4); (1, 1) ]));
  check "gate rejects out-of-range keys" (not (ok [ (10, 10) ]));
  check "gate rejects a wrong value" (not (ok [ (2, 3) ]))

let reference () =
  check "the reference load runs on two domains"
    (Reference.run ~domains:2 ~seconds:0.05 > 0.0)

let () =
  gate ();
  reference ();
  transparency ();
  domains_spans ();
  if !failures > 0 then exit 1
