(* The model checker checking itself: suite expectations (every sound
   tracker certifies, every oracle yields a witness), minimality and
   replay of the witnesses, trace round-tripping, and the shrinker's
   contract — all within the budgets recorded in EXPERIMENTS.md §7
   (preemption bound <= 3, <= 50k schedules, witnesses <= 10
   preemptions). *)

open Ibr_check

let case_exn name =
  match Scenarios.find name with
  | Some c -> c
  | None -> Alcotest.failf "no scenario named %s" name

(* ---- suite expectations: one test per scenario ---- *)

let run_case (c : Scenarios.case) () =
  let name = c.scenario.Scenario.name in
  match Check.explore ~bound:c.bound c.scenario, c.expect with
  | Check.Certified { schedules; _ }, Scenarios.Safe ->
    Alcotest.(check bool)
      (Printf.sprintf "%s certified within budget (%d schedules)" name
         schedules)
      true
      (schedules <= Check.default_budget)
  | Check.Witness w, Scenarios.Faulty ->
    Alcotest.(check bool)
      (Printf.sprintf "%s witness uses few preemptions (%d)" name
         w.preemptions)
      true (w.preemptions <= 10)
  | Check.Certified _, Scenarios.Faulty ->
    Alcotest.failf "%s: expected a fault witness, got certified" name
  | Check.Witness w, Scenarios.Safe ->
    Alcotest.failf "%s: spurious witness: %s" name w.failure
  | (Check.Exhausted _ | Check.Diverged _) as v, _ ->
    Alcotest.failf "%s: %a" name Check.pp_verdict v

let expectation_cases =
  List.map
    (fun (c : Scenarios.case) ->
       Alcotest.test_case
         (Printf.sprintf "explore %s" c.scenario.Scenario.name)
         `Quick (run_case c))
    (Scenarios.cases ())

(* ---- two buckets per sweep: the "@gated" cases ---- *)

(* [Scenarios.reader_writer] with a writer that publishes, unlinks and
   retires two blocks in one operation, sweeping at each retire
   (empty_freq = 1).  epoch_freq = 1 makes each allocation open a
   fresh epoch, so the store holds two buckets and a sweep can fall
   with its conflict bound between them — one bucket freed wholesale,
   the other kept — while the reader's guarded read races both
   blocks.  The single-retire "@buckets" cases only ever sweep one
   bucket.  The suffix is the name these cases had when they
   re-certified the deleted gated store, whose schedules equalled the
   "@buckets" ones. *)
let reader_writer_gated (entry : Ibr_core.Registry.entry) =
  let open Ibr_core in
  let module T = (val entry.tracker : Tracker_intf.TRACKER) in
  Scenario.v ~name:("reader_writer/" ^ entry.name ^ "@gated") ~threads:2
    (fun () ->
      let t =
        T.create ~threads:2
          { (Tracker_intf.default_config ~threads:2 ()) with
            reuse = false; epoch_freq = 1; empty_freq = 1 }
      in
      let h0 = T.register t ~tid:0 and h1 = T.register t ~tid:1 in
      let ptr = T.make_ptr t None in
      let reader _ =
        T.start_op h0;
        (match T.read_root h0 ptr with
         | View.Ptr { target = b; _ } -> ignore (Block.get b)
         | View.Null _ -> ());
        T.end_op h0
      in
      let round v =
        let b = T.alloc h1 v in
        T.write h1 ptr (Some b);
        T.write h1 ptr None;
        T.retire h1 b
      in
      let writer _ =
        T.start_op h1;
        round 1;
        round 2;
        T.end_op h1;
        T.force_empty h1
      in
      { Scenario.bodies = [| reader; writer |]; finish = (fun () -> None) })

let gated_cases =
  List.map
    (fun (e, expect, bound) ->
       let c =
         { Scenarios.scenario = reader_writer_gated e; expect; bound }
       in
       Alcotest.test_case
         (Printf.sprintf "explore %s" c.scenario.Scenario.name)
         `Quick (run_case c))
    (List.map (fun e -> (e, Scenarios.Safe, 2)) Ibr_core.Registry.all
     @ [ (Ibr_core.Registry.unsafe_free, Scenarios.Faulty, 3) ])

(* ---- the two paper-bug witnesses: found, minimal, replayable ---- *)

let witness_pipeline name ~insufficient_bound ~needed_preemptions () =
  let case = case_exn name in
  (* One bound below: certified, i.e. the bug *needs* this many
     preemptions. *)
  (match Check.explore ~bound:insufficient_bound case.scenario with
   | Check.Certified _ -> ()
   | Check.Witness w ->
     Alcotest.failf "%s faults at bound %d already: %s" name
       insufficient_bound w.failure
   | (Check.Exhausted _ | Check.Diverged _) as v ->
     Alcotest.failf "%s: %a" name Check.pp_verdict v);
  match Check.check ~bound:case.bound case.scenario with
  | { verdict = Check.Witness w; minimal = Some (tr, stats) } ->
    Alcotest.(check int)
      (name ^ " found at its minimal preemption count")
      needed_preemptions w.preemptions;
    Alcotest.(check bool) (name ^ " shrunk to <= 10 preemptions") true
      (Trace.switches tr <= 10);
    Alcotest.(check bool) (name ^ " shrink preserved the fault kind") true
      (stats.Shrink.kept_failure = w.failure);
    Alcotest.(check bool) (name ^ " shrunk trace is a sub-trace") true
      (Shrink.is_sub_trace ~original:w.trace ~shrunk:tr);
    Alcotest.(check bool) (name ^ " shrunk trace is locally minimal") true
      (Shrink.locally_minimal case.scenario tr);
    (* Deterministic replay: same decisions, same fault, twice. *)
    let r1 = Engine.replay case.scenario tr in
    let r2 = Engine.replay case.scenario tr in
    Alcotest.(check bool) (name ^ " replay faults") true (r1.failure <> None);
    Alcotest.(check bool) (name ^ " replay is deterministic") true
      (r1.Engine.failure = r2.Engine.failure
       && r1.Engine.decisions = r2.Engine.decisions)
  | { verdict = v; _ } ->
    Alcotest.failf "%s: expected witness+minimal, got %s" name
      (Fmt.str "%a" Check.pp_verdict v)

(* ---- checked-in witness traces replay deterministically ---- *)

let checked_in_traces =
  [ "reader_writer_UnsafeFree.trace";
    "reader_writer_2GEIBR-unfenced.trace";
    "advance_race_QSBR-noncas.trace";
    "thread_churn_EBR-noflush.trace";
    "queue_dequeue_churn_2GEIBR-unfenced.trace" ]

let test_checked_in_traces () =
  List.iter
    (fun file ->
       let path = Filename.concat "traces" file in
       match Trace.of_file path with
       | Error msg -> Alcotest.failf "%s: %s" path msg
       | Ok tr ->
         let case = case_exn tr.Trace.scenario in
         let r = Engine.replay case.scenario tr in
         (match r.Engine.failure with
          | Some _ -> ()
          | None -> Alcotest.failf "%s did not reproduce its fault" path))
    checked_in_traces

(* ---- the per-schedule decision cap ---- *)

(* Body 0 spins on a flag that only body 1 sets.  The default choice
   keeps body 0 running, so the first schedule never ends; the cap must
   turn it into a verdict instead of a hang. *)
let test_spin_hits_decision_cap () =
  let spin =
    Scenario.v ~name:"spin" ~threads:2 (fun () ->
      let flag = ref false in
      { Scenario.bodies =
          [| (fun _ -> while not !flag do Ibr_runtime.Hooks.step 1 done);
             (fun _ -> flag := true) |];
        finish = (fun () -> None) })
  in
  match Check.explore ~bound:0 spin with
  | Check.Diverged { schedules } ->
    Alcotest.(check int) "stopped at the first schedule" 1 schedules
  | v -> Alcotest.failf "expected the decision cap: %a" Check.pp_verdict v

(* ---- random walk cross-check ---- *)

let test_random_walk_finds_unsafe_free () =
  let case = case_exn "reader_writer/UnsafeFree" in
  match Check.random_walk ~runs:2_000 ~seed:7 case.scenario with
  | Check.Witness _ -> ()
  | v ->
    Alcotest.failf "random walk missed the UnsafeFree fault: %s"
      (Fmt.str "%a" Check.pp_verdict v)

let test_random_walk_never_certifies () =
  let case = case_exn "reader_writer/EBR" in
  match Check.random_walk ~runs:50 ~seed:3 case.scenario with
  | Check.Exhausted { schedules } -> Alcotest.(check int) "runs" 50 schedules
  | v ->
    Alcotest.failf "random walk on a sound tracker: %s"
      (Fmt.str "%a" Check.pp_verdict v)

(* ---- trace round-tripping ---- *)

let trace_testable =
  Alcotest.testable Trace.pp Trace.equal

let test_trace_roundtrip_example () =
  let t =
    Trace.v ~scenario:"reader_writer/EBR" ~threads:2
      [ (0, 6); (1, 8); (0, 2); (1, 1) ]
  in
  match Trace.of_string (Trace.to_string t) with
  | Ok t' -> Alcotest.check trace_testable "round trip" t t'
  | Error msg -> Alcotest.failf "round trip failed: %s" msg

let test_trace_rejects_garbage () =
  let bad =
    [ "";                                           (* no scenario *)
      "scenario x\n";                               (* no threads *)
      "scenario x\nthreads 2\nseg 2 1\n";           (* tid out of range *)
      "scenario x\nthreads 2\nseg 0 0\n";           (* zero steps *)
      "scenario x\nthreads 2\nseg 0\n";             (* malformed seg *)
      "scenario x\nthreads 0\n";                    (* bad thread count *)
      "scenario x\nthreads 2\nwibble 3\n" ]         (* unknown line *)
  in
  List.iter
    (fun s ->
       match Trace.of_string s with
       | Error _ -> ()
       | Ok t -> Alcotest.failf "accepted %S as %s" s (Trace.to_string t))
    bad

let trace_gen =
  let open QCheck.Gen in
  let* threads = int_range 1 4 in
  let* segs =
    list_size (int_range 0 12)
      (pair (int_range 0 (threads - 1)) (int_range 1 50))
  in
  let* name = oneofl [ "a"; "rw/X"; "scenario_1"; "advance_race/QSBR" ] in
  return (Trace.v ~scenario:name ~threads segs)

let trace_arb =
  QCheck.make trace_gen ~print:(fun t -> Trace.to_string t)

let prop_trace_roundtrip =
  QCheck.Test.make ~name:"Trace.of_string inverts to_string" ~count:300
    trace_arb (fun t ->
      match Trace.of_string (Trace.to_string t) with
      | Ok t' -> Trace.equal t t'
      | Error _ -> false)

(* ---- shrinker contract on randomized failing traces ---- *)

(* Random schedules for the UnsafeFree scenario; a good fraction
   fault, and each failing one must shrink to a locally minimal
   sub-trace that still faults. *)
let unsafe_trace_gen =
  let open QCheck.Gen in
  let* segs =
    list_size (int_range 1 10) (pair (int_range 0 1) (int_range 1 6))
  in
  return (Trace.v ~scenario:"reader_writer/UnsafeFree" ~threads:2 segs)

let prop_shrink_contract =
  let exercised = ref 0 in
  let scenario = (case_exn "reader_writer/UnsafeFree").scenario in
  QCheck.Test.make ~name:"Shrink.minimize contract on failing traces"
    ~count:120
    (QCheck.make unsafe_trace_gen ~print:Trace.to_string)
    (fun tr ->
       if (Engine.replay scenario tr).Engine.failure = None then true
       else begin
         incr exercised;
         let mini, stats = Shrink.minimize scenario tr in
         (Engine.replay scenario mini).Engine.failure
           = Some stats.Shrink.kept_failure
         && Shrink.is_sub_trace ~original:tr ~shrunk:mini
         && Shrink.locally_minimal scenario mini
       end)

(* Hand-padded variants of the checked-in minimal witness must shrink
   back down to something no larger. *)
let test_shrink_padded_witness () =
  let case = case_exn "reader_writer/UnsafeFree" in
  let padded =
    Trace.v ~scenario:case.scenario.Scenario.name ~threads:2
      [ (1, 2); (1, 1); (0, 2); (1, 3); (0, 10); (1, 5) ]
  in
  (match (Engine.replay case.scenario padded).Engine.failure with
   | None -> Alcotest.fail "padded witness should fault"
   | Some _ -> ());
  let mini, _ = Shrink.minimize case.scenario padded in
  Alcotest.(check bool) "shrunk below padded size" true
    (Trace.total_steps mini < Trace.total_steps padded
     && Trace.switches mini <= Trace.switches padded);
  Alcotest.(check bool) "still a sub-trace" true
    (Shrink.is_sub_trace ~original:padded ~shrunk:mini)

let suite =
  expectation_cases
  @ gated_cases
  @ [
      Alcotest.test_case "2GEIBR-unfenced witness pipeline" `Quick
        (witness_pipeline "reader_writer/2GEIBR-unfenced"
           ~insufficient_bound:2 ~needed_preemptions:3);
      Alcotest.test_case "QSBR-noncas witness pipeline" `Quick
        (witness_pipeline "advance_race/QSBR-noncas" ~insufficient_bound:1
           ~needed_preemptions:2);
      Alcotest.test_case "checked-in traces reproduce" `Quick
        test_checked_in_traces;
      Alcotest.test_case "a spinning schedule hits the decision cap" `Quick
        test_spin_hits_decision_cap;
      Alcotest.test_case "random walk finds UnsafeFree" `Quick
        test_random_walk_finds_unsafe_free;
      Alcotest.test_case "random walk never certifies" `Quick
        test_random_walk_never_certifies;
      Alcotest.test_case "trace round-trip example" `Quick
        test_trace_roundtrip_example;
      Alcotest.test_case "trace parser rejects garbage" `Quick
        test_trace_rejects_garbage;
      QCheck_alcotest.to_alcotest prop_trace_roundtrip;
      QCheck_alcotest.to_alcotest prop_shrink_contract;
      Alcotest.test_case "padded witness shrinks" `Quick
        test_shrink_padded_witness;
    ]
