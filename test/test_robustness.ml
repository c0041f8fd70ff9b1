(* The fault model end to end (DESIGN.md §7): the capped allocator's
   backpressure contract and counter reconciliation, and crash faults
   driven through the simulator runner — a robust scheme survives a
   capped heap that a crashed EBR thread exhausts. *)

open Ibr_core
open Ibr_harness

(* ---- allocator-level properties ---- *)

(* Random alloc/retire/free traffic against a capped heap, run in
   counting mode so exhaustion is an exception we can tally.  The
   books must balance exactly: every alloc is fresh or reused, every
   [Exhausted] is one oom event, and the footprint never exceeds the
   cap (peak included — backpressure, not overcommit). *)
let qcheck_capped_alloc_reconciles =
  QCheck.Test.make ~name:"capped allocator: counters reconcile, cap holds"
    ~count:200
    (QCheck.make
       QCheck.Gen.(triple (int_range 2 24) (int_range 10 400) (int_range 0 9999)))
    (fun (capacity, nops, seed) ->
       let (ok, _), _ =
         Fault.with_counting (fun () ->
           let a = Alloc.create ~capacity ~threads:1 () in
           let rng = Ibr_runtime.Rng.create seed in
           let live = ref [] and nlive = ref 0 in
           let caught = ref 0 and frees = ref 0 in
           let cap_ok = ref true in
           for _ = 1 to nops do
             (if !nlive > 0 && Ibr_runtime.Rng.chance rng 0.4 then begin
                match !live with
                | [] -> ()
                | b :: rest ->
                  live := rest;
                  decr nlive;
                  Block.transition_retire b;
                  Alloc.free a ~tid:0 b;
                  incr frees
              end
              else
                match Alloc.alloc a ~tid:0 0 with
                | b -> live := b :: !live; incr nlive
                | exception Alloc.Exhausted -> incr caught);
             if Alloc.footprint a > capacity then cap_ok := false
           done;
           let st = Alloc.stats a in
           (!cap_ok
            && st.allocated = st.fresh + st.reused
            && st.oom_events = !caught
            && st.freed = !frees
            && st.live = st.allocated - st.freed
            && st.peak_footprint <= capacity,
            st))
       in
       ok)

(* The admission race, with real parallelism: N domains hammer a
   capped allocator with mixed alloc/free traffic.  Admission is a
   reservation (fetch-and-add, undone on overshoot), so the peak
   footprint — taken only from successful reservations — can never
   exceed the cap, no matter how the admitters interleave; a
   check-then-increment admission lets N racing threads overshoot by
   N - 1 and this test catches it.  Books must still balance across
   domains once everyone joins. *)
let qcheck_concurrent_admission_cap_holds =
  QCheck.Test.make ~name:"capped allocator: cap holds under concurrent admitters"
    ~count:20
    (QCheck.make
       QCheck.Gen.(triple (int_range 2 4) (int_range 2 32) (int_range 0 9999)))
    (fun (domains, capacity, seed) ->
       let (ok, _), _ =
         Fault.with_counting (fun () ->
           let a =
             Alloc.create ~capacity ~retry_budget:1 ~threads:domains ()
           in
           let worker tid =
             Domain.spawn (fun () ->
               let rng = Ibr_runtime.Rng.stream ~seed ~index:tid in
               let live = ref [] in
               let drop b =
                 Block.transition_retire b;
                 Alloc.free a ~tid b
               in
               for _ = 1 to 300 do
                 match !live with
                 | b :: rest when Ibr_runtime.Rng.chance rng 0.5 ->
                   live := rest;
                   drop b
                 | _ ->
                   (match Alloc.alloc a ~tid 0 with
                    | b -> live := b :: !live
                    | exception Alloc.Exhausted -> ())
               done;
               List.iter drop !live)
           in
           List.iter Domain.join (List.init domains worker);
           let st = Alloc.stats a in
           (st.peak_footprint <= capacity
            && st.peak_footprint > 0
            && st.live = st.allocated - st.freed
            && st.allocated = st.fresh + st.reused
            && Alloc.footprint a = 0,
            st))
       in
       ok)

let test_pressure_hook_rescues () =
  (* A hook that can actually free something turns a would-be oom into
     a retried success: the backpressure ladder is observable
     ([pressure_retries] > 0) and no fault is reported. *)
  let (), faults =
    Fault.with_counting (fun () ->
      let a = Alloc.create ~capacity:2 ~threads:1 () in
      let b1 = Alloc.alloc a ~tid:0 0 in
      let b2 = Alloc.alloc a ~tid:0 0 in
      ignore b1;
      Block.transition_retire b2;
      let pending = ref (Some b2) in
      Alloc.set_pressure_hook a ~tid:0 (fun () ->
        match !pending with
        | Some b ->
          pending := None;
          Alloc.free a ~tid:0 b
        | None -> ());
      let b3 = Alloc.alloc a ~tid:0 0 in
      ignore b3;
      let st = Alloc.stats a in
      Alcotest.(check bool) "retried under pressure" true
        (st.pressure_retries >= 1);
      Alcotest.(check int) "no oom" 0 st.oom_events;
      Alcotest.(check int) "footprint back at cap" 2 st.live)
  in
  Alcotest.(check int) "no faults reported" 0 faults

let test_exhaustion_reports_fault () =
  let before = Fault.count Fault.Alloc_exhausted in
  let (), _ =
    Fault.with_counting (fun () ->
      let a = Alloc.create ~capacity:1 ~retry_budget:2 ~threads:1 () in
      ignore (Alloc.alloc a ~tid:0 0);
      (match Alloc.alloc a ~tid:0 0 with
       | _ -> Alcotest.fail "alloc beyond capacity must raise"
       | exception Alloc.Exhausted -> ());
      let st = Alloc.stats a in
      Alcotest.(check int) "one oom event" 1 st.oom_events;
      Alcotest.(check int) "retry budget was spent" 2 st.pressure_retries)
  in
  Alcotest.(check int) "Alloc_exhausted counted" 1
    (Fault.count Fault.Alloc_exhausted - before)

(* ---- crash faults through the simulator runner ---- *)

let small_spec = { (Workload.spec_for "hashmap") with key_range = 256 }

let crash_run ~tracker ~faults ~seed ~horizon =
  let cfg =
    Runner_sim.default_config ~threads:4 ~cores:4 ~horizon ~seed ~faults
      ~spec:small_spec ()
  in
  let r, _ =
    Fault.with_counting (fun () ->
      Runner_sim.run_named ~tracker_name:tracker ~ds_name:"hashmap" cfg)
  in
  Option.get r

(* The headline robustness property, as a seed-randomised test at CI
   scale: under one crashed thread and a capped heap, a robust scheme
   (HP) finishes with zero exhaustion events while EBR — whose crashed
   reservation pins every later retirement — runs out.  Books balance
   on every run. *)
let qcheck_capped_crash_separates =
  let faults =
    Runner_intf.Crash_capped
      { crash_prob = 0.5; max_crashes = 1; slack_per_thread = 24 }
  in
  QCheck.Test.make ~name:"crash+capped: HP survives where EBR exhausts"
    ~count:5
    (QCheck.make QCheck.Gen.(int_range 0 10_000))
    (fun seed ->
       let hp = crash_run ~tracker:"HP" ~faults ~seed ~horizon:40_000 in
       let ebr = crash_run ~tracker:"EBR" ~faults ~seed ~horizon:40_000 in
       let books (r : Stats.t) =
         let m = Stats.metric r in
         m "allocated" - m "freed" = m "live"
       in
       books hp && books ebr
       && Stats.metric hp "oom_events" = 0
       && (Stats.metric ebr "crashes" = 0
           || Stats.metric ebr "oom_events" > 0))

let test_crash_pins_ebr_not_hp () =
  let faults = Runner_intf.Crash { crash_prob = 0.5; max_crashes = 1 } in
  let ebr = crash_run ~tracker:"EBR" ~faults ~seed:0xc4a5 ~horizon:60_000 in
  let hp = crash_run ~tracker:"HP" ~faults ~seed:0xc4a5 ~horizon:60_000 in
  Alcotest.(check int) "EBR run crashed a thread" 1
    (Stats.metric ebr "crashes");
  Alcotest.(check int) "HP run crashed a thread" 1
    (Stats.metric hp "crashes");
  Alcotest.(check bool)
    (Printf.sprintf "EBR peak (%d) dwarfs HP peak (%d)"
       ebr.peak_unreclaimed hp.peak_unreclaimed)
    true
    (ebr.peak_unreclaimed > 4 * hp.peak_unreclaimed)

(* A 2GEIBR thread that dies inside [start_op] must not pin what other
   threads retire afterwards.  A decider lets thread 0 take [k]
   dispatches of one step each and then stalls it for good, so for
   some [k] it stops between the two reservation writes of
   [Interval_res.start]; at every [k] the block thread 1 then
   allocates (born after thread 0's epoch), retires and force-empties
   must be freed.  Were the lower endpoint written first, the slot
   would hold [e, max_int] at that point and pin the block. *)
let test_death_mid_start_pins_nothing () =
  let module T = Two_ge_ibr in
  for k = 0 to 6 do
    let t =
      T.create ~threads:2
        { (Tracker_intf.default_config ~threads:2 ()) with
          reuse = false; epoch_freq = 1; empty_freq = 1_000_000 }
    in
    let h0 = T.register t ~tid:0 and h1 = T.register t ~tid:1 in
    let sched =
      Ibr_runtime.Sched.create
        { (Ibr_runtime.Sched.test_config ~cores:2 ()) with quantum = 1 }
    in
    let given = ref 0 in
    Ibr_runtime.Sched.set_decider sched (fun ~runnable ~current:_ ->
      if Array.mem 0 runnable && !given < k then begin
        incr given;
        0
      end
      else begin
        if Array.mem 0 runnable then Ibr_runtime.Sched.stall sched 0;
        1
      end);
    let freed = ref false in
    ignore (Ibr_runtime.Sched.spawn sched (fun _ -> T.start_op h0));
    ignore
      (Ibr_runtime.Sched.spawn sched (fun _ ->
         let b = T.alloc h1 0 in
         T.retire h1 b;
         T.force_empty h1;
         freed := Block.is_reclaimed b));
    Ibr_runtime.Sched.run sched;
    Alcotest.(check bool)
      (Printf.sprintf "freed with thread 0 stopped after %d dispatches" k)
      true !freed
  done

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_capped_alloc_reconciles;
    QCheck_alcotest.to_alcotest qcheck_concurrent_admission_cap_holds;
    Alcotest.test_case "pressure hook rescues a full heap" `Quick
      test_pressure_hook_rescues;
    Alcotest.test_case "exhaustion reports Alloc_exhausted" `Quick
      test_exhaustion_reports_fault;
    QCheck_alcotest.to_alcotest qcheck_capped_crash_separates;
    Alcotest.test_case "crash pins EBR, not HP" `Quick
      test_crash_pins_ebr_not_hp;
    Alcotest.test_case "2GEIBR death mid start_op pins nothing" `Quick
      test_death_mid_start_pins_nothing;
  ]
