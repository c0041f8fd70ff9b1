(* Neutralization with recovery (DESIGN.md §12), end to end:

   - scheduler delivery semantics: the restart signal is only
     delivered while the victim's restart window is open, and a
     [Ds_common.committed] bracket defers it past the masked section;
   - the watchdog's healing state machine: neutralize instead of
     eject, count a recovery when the victim moves again, re-deliver
     after a fresh grace window, and re-arm ejected slots whose
     counter moves (no permanent blind spots);
   - restart idempotence: model-based linearizability of the hashmap
     under a barrage of injected mid-op neutralizations — a restarted
     attempt must never double-apply an operation;
   - handoff hygiene: pushed = drained balances across mid-op
     restarts and detaches under a live drainer;
   - reproducibility: the stall+neutralize fault profile is
     bit-deterministic in the seed and never ejects. *)

open Ibr_core
open Ibr_runtime
open Ibr_harness

(* ---- scheduler delivery semantics ---- *)

let test_delivery_requires_open_window () =
  let sched = Sched.create (Sched.test_config ~cores:2 ~seed:7 ()) in
  let closed_survived = ref false and delivered = ref false in
  ignore
    (Sched.spawn sched (fun _ ->
       (* Window closed: the peer's signal stays pending across these
          resumptions. *)
       Hooks.step 40;
       Hooks.step 40;
       closed_survived := true;
       let prev = Hooks.restart_window true in
       (match Hooks.step 40 with
        | () -> ()
        | exception Fault.Neutralized -> delivered := true);
       ignore (Hooks.restart_window prev)));
  ignore (Sched.spawn sched (fun _ -> Sched.neutralize_peer 0));
  Sched.run sched;
  Alcotest.(check bool) "no unwind while the window is closed" true
    !closed_survived;
  Alcotest.(check bool) "pending signal lands at first open resumption" true
    !delivered

let test_committed_masks_delivery () =
  let sched = Sched.create (Sched.test_config ~cores:2 ~seed:7 ()) in
  let mask_survived = ref false and delivered_after = ref false in
  ignore
    (Sched.spawn sched (fun _ ->
       let prev = Hooks.restart_window true in
       Ibr_ds.Ds_common.committed (fun () ->
         Hooks.step 60;
         Hooks.step 60;
         mask_survived := true);
       (match Hooks.step 40 with
        | () -> ()
        | exception Fault.Neutralized -> delivered_after := true);
       ignore (Hooks.restart_window prev)));
  ignore
    (Sched.spawn sched (fun _ ->
       Hooks.step 20;
       Sched.neutralize_peer 0));
  Sched.run sched;
  Alcotest.(check bool) "masked section runs to completion" true
    !mask_survived;
  Alcotest.(check bool) "signal delivered once the mask lifts" true
    !delivered_after

(* ---- watchdog healing state machine ---- *)

let neutralize_dog ~exec ~signals ~progress ~active =
  Watchdog.spawn ~exec ~period:10 ~grace:2 ~threads:1
    ~remedy:(Watchdog.Neutralize (fun tid -> signals := tid :: !signals))
    ~active:(fun _ -> !active)
    ~progress:(fun _ -> !progress)
    ~eject:(fun _ -> Alcotest.fail "a neutralize watchdog must not eject")
    ()

let test_watchdog_heals_and_counts_recovery () =
  let sched = Sched.create (Sched.test_config ~cores:2 ()) in
  let exec = Run_engine.sim_exec ~sched ~horizon:300 in
  let progress = ref 0 and active = ref true and signals = ref [] in
  let w = neutralize_dog ~exec ~signals ~progress ~active in
  ignore
    (Sched.spawn sched (fun _ ->
       progress := 1;                                (* arm *)
       while !signals = [] do Hooks.step 5 done;     (* frozen until hit *)
       (* The signal "worked": keep progressing for several watchdog
          rounds (dispatch interleaves at quantum granularity, so a
          single short observation window could be reordered past the
          scan that should see it). *)
       for i = 2 to 21 do
         progress := i;
         Hooks.step 5
       done;
       active := false));
  exec.launch ();
  (* The exact delivery count depends on dispatch granularity (a
     victim frozen across several scans may be re-signalled); what is
     contractual: signals flowed, each was counted, and the single
     recovery was observed. *)
  Alcotest.(check bool) "at least one signal delivered" true
    (List.length !signals >= 1);
  Alcotest.(check int) "every delivery counted"
    (List.length !signals) (Watchdog.neutralizations w);
  Alcotest.(check bool) "recovery counted" true (Watchdog.recovered w >= 1);
  Alcotest.(check bool) "recoveries never exceed deliveries" true
    (Watchdog.recovered w <= Watchdog.neutralizations w);
  Alcotest.(check bool) "recovery no longer pending" false
    (Watchdog.neutralized w 0);
  Alcotest.(check int) "healed, not ejected" 0 (Watchdog.ejections w)

let test_watchdog_redelivers_after_grace () =
  let sched = Sched.create (Sched.test_config ~cores:2 ()) in
  let exec = Run_engine.sim_exec ~sched ~horizon:120 in
  let progress = ref 0 and active = ref true and signals = ref [] in
  let w = neutralize_dog ~exec ~signals ~progress ~active in
  ignore
    (Sched.spawn sched (fun _ ->
       progress := 1;
       Hooks.step 300 (* frozen for the whole run *)));
  exec.launch ();
  Alcotest.(check bool)
    (Printf.sprintf "frozen victim is re-signalled (%d deliveries)"
       (Watchdog.neutralizations w))
    true
    (Watchdog.neutralizations w >= 2);
  Alcotest.(check int) "every delivery went through the remedy"
    (Watchdog.neutralizations w) (List.length !signals);
  Alcotest.(check bool) "recovery still pending" true
    (Watchdog.neutralized w 0);
  Alcotest.(check int) "no recovery without progress" 0
    (Watchdog.recovered w)

(* Satellite: an ejected slot whose counter moves again is re-armed
   and re-ejectable — no permanent blind spot (the pre-§12 watchdog
   wrote a slot off forever on first ejection). *)
let test_watchdog_rearms_ejected_slot () =
  let sched = Sched.create (Sched.test_config ~cores:2 ()) in
  let exec = Run_engine.sim_exec ~sched ~horizon:300 in
  let progress = ref 0 in
  let ejected_tids = ref [] in
  let w =
    Watchdog.spawn ~exec ~period:10 ~grace:2 ~threads:1
      ~progress:(fun _ -> !progress)
      ~eject:(fun tid -> ejected_tids := tid :: !ejected_tids)
      ()
  in
  ignore
    (Sched.spawn sched (fun _ ->
       progress := 1;
       (* Frozen until the first ejection lands... *)
       while !ejected_tids = [] do Hooks.step 5 done;
       progress := 2;    (* ...then the "dead" thread was merely slow *)
       Hooks.step 200    (* frozen again → must be re-ejectable *)));
  exec.launch ();
  Alcotest.(check int) "slow thread ejected, re-armed, ejected again" 2
    (Watchdog.ejections w);
  Alcotest.(check int) "both ejections reached the tracker hook" 2
    (List.length !ejected_tids)

(* ---- restart idempotence: linearizability under injected signals ---- *)

(* The linearizability harness from [Test_linearizability], plus a
   chaos fiber firing restart signals at random workers mid-operation.
   A [with_op] restart that re-applied a landed insert/remove would
   surface as a non-linearizable per-key history (double successful
   insert, phantom remove, ...). *)
let run_and_check_neutralized (module S : Ibr_ds.Ds_intf.RIDEABLE) ~seed
    ~threads ~key_range ~ops_per_thread =
  let m = Option.get S.map in
  let cfg =
    { (Tracker_intf.default_config ~threads ()) with
      reuse = false; epoch_freq = 2; empty_freq = 8 } in
  let t = S.create ~threads cfg in
  let sched =
    Sched.create
      { (Sched.test_config ~cores:3 ~seed ()) with quantum = 120 } in
  let logs = Array.make threads [] in
  let finished = ref 0 in
  for i = 0 to threads - 1 do
    ignore
      (Sched.spawn sched (fun tid ->
         let h = S.register t ~tid in
         let rng = Rng.stream ~seed:(seed * 1299721 + i) ~index:i in
         for _ = 1 to ops_per_thread do
           let key = Rng.int rng key_range in
           let t_inv = Hooks.global_now () in
           let kind, result =
             match Rng.int rng 3 with
             | 0 -> (Test_linearizability.Ins, m.insert h ~key ~value:key)
             | 1 -> (Test_linearizability.Rem, m.remove h ~key)
             | _ -> (Test_linearizability.Has, m.contains h ~key)
           in
           let t_resp = Hooks.global_now () in
           logs.(tid) <-
             (key, { Test_linearizability.kind; result; t_inv; t_resp })
             :: logs.(tid)
         done;
         incr finished))
  done;
  ignore
    (Sched.spawn sched (fun _ ->
       let rng = Rng.stream ~seed:(seed + 77) ~index:threads in
       let rec loop n =
         if n > 0 && !finished < threads then begin
           Hooks.step (100 + Rng.int rng 300);
           Sched.neutralize_peer (Rng.int rng threads);
           loop (n - 1)
         end
       in
       loop 96));
  Sched.run sched;
  let history = ref [] in
  Array.iter (fun l -> history := l @ !history) logs;
  let ok = ref true in
  for key = 0 to key_range - 1 do
    let events =
      List.filter_map
        (fun (k, e) -> if k = key then Some e else None)
        !history
      |> Array.of_list
    in
    if Array.length events > 62 then
      QCheck.Test.fail_reportf "key %d has %d events; shrink the workload"
        key (Array.length events);
    if not (Test_linearizability.check_key events) then begin
      ok := false;
      QCheck.Test.fail_reportf
        "history of key %d not linearizable under neutralization (%d events)"
        key (Array.length events)
    end
  done;
  !ok

let qcheck_restart_idempotent =
  QCheck.Test.make
    ~name:"hashmap linearizable under injected neutralizations" ~count:4
    (QCheck.make QCheck.Gen.(int_range 0 10_000))
    (fun seed ->
       let maker = Ibr_ds.Ds_registry.find_exn "hashmap" in
       List.for_all
         (fun (e : Registry.entry) ->
            run_and_check_neutralized
              (maker.instantiate e.tracker)
              ~seed ~threads:5 ~key_range:48 ~ops_per_thread:120)
         [ Registry.debra_plus; Registry.debra; Registry.ebr ])

(* ---- handoff hygiene across mid-op restarts (satellite) ---- *)

(* Workers retire into the handoff queue while restart signals unwind
   their attempts mid-operation and they detach under a live drainer.
   No retirement may be stranded or counted twice: after the run and a
   shutdown flush, every block ever pushed to the queue must have been
   drained. *)
let test_handoff_balanced_after_neutralization () =
  Handoff.Stats.reset ();
  let threads = 3 in
  let cfg =
    { (Tracker_intf.default_config ~threads ()) with
      background_reclaim = true; epoch_freq = 2; empty_freq = 4 } in
  let maker = Ibr_ds.Ds_registry.find_exn "hashmap" in
  let (module S) =
    maker.instantiate Registry.debra_plus.tracker in
  let sm = Option.get S.map in
  let t = S.create ~threads cfg in
  let sched = Sched.create (Sched.test_config ~cores:3 ~seed:0x42 ()) in
  let finished = ref 0 in
  for i = 0 to threads - 1 do
    ignore
      (Sched.spawn sched (fun _ ->
         match S.attach t with
         | None -> Alcotest.fail "census unexpectedly full"
         | Some h ->
           let rng = Rng.stream ~seed:0x42 ~index:i in
           for _ = 1 to 150 do
             let key = Rng.int rng 32 in
             match Rng.int rng 2 with
             | 0 -> ignore (sm.insert h ~key ~value:key)
             | _ -> ignore (sm.remove h ~key)
           done;
           S.detach h;
           incr finished))
  done;
  let svc = Option.get (S.reclaim_service t) in
  ignore
    (Sched.spawn sched (fun _ ->
       let rec loop () =
         if !finished < threads then begin
           ignore (svc.Handoff.drain ());
           Hooks.step 400;
           loop ()
         end
       in
       loop ()));
  ignore
    (Sched.spawn sched (fun _ ->
       let rng = Rng.stream ~seed:7 ~index:9 in
       let rec loop n =
         if n > 0 && !finished < threads then begin
           Hooks.step (150 + Rng.int rng 300);
           Sched.neutralize_peer (Rng.int rng threads);
           loop (n - 1)
         end
       in
       loop 48));
  Sched.run sched;
  svc.Handoff.shutdown_flush ();
  let pushed = Atomic.get Handoff.Stats.pushed in
  let drained = Atomic.get Handoff.Stats.drained in
  Alcotest.(check bool) "retirements flowed through the queue" true
    (pushed > 0);
  Alcotest.(check int) "handoff pushed = drained after restarts" pushed
    drained

(* ---- stall+neutralize profile: deterministic, never ejects ---- *)

let small_spec = { (Workload.spec_for "hashmap") with key_range = 256 }

let stall_neutralize =
  match Runner_intf.faults_of_string "stall+neutralize" with
  | Some f -> f
  | None -> Alcotest.fail "stall+neutralize profile missing"

let neutralize_run ~tracker ~seed =
  let cfg =
    Runner_sim.default_config ~threads:4 ~cores:4 ~horizon:150_000 ~seed
      ~faults:stall_neutralize ~spec:small_spec ()
  in
  let r, _ =
    Fault.with_counting (fun () ->
      Runner_sim.run_named ~tracker_name:tracker ~ds_name:"hashmap" cfg)
  in
  Option.get r

let test_stall_neutralize_deterministic () =
  let a = neutralize_run ~tracker:"DEBRA+" ~seed:0xbeef in
  let b = neutralize_run ~tracker:"DEBRA+" ~seed:0xbeef in
  Alcotest.(check string) "same seed, bit-identical CSV row"
    (Stats.to_csv_row a) (Stats.to_csv_row b);
  Alcotest.(check int) "the healing watchdog never ejects" 0
    (Stats.metric a "ejections")

let test_stall_neutralize_signals_flow () =
  (* A hotter variant of the preset (stalls near-certain per quantum,
     short grace) so a small horizon reliably drives deliveries: the
     stall length dwarfs grace × period, every stalled worker draws a
     restart signal, and EBR — no recovery protocol of its own beyond
     [with_op]'s generic drop-and-reprotect — survives fault-free. *)
  let hot =
    Runner_intf.Stall_neutralize
      { stall_prob = 0.5; stall_len = 480_000; period = 5_000; grace = 2 }
  in
  let cfg =
    Runner_sim.default_config ~threads:4 ~cores:4 ~horizon:150_000
      ~seed:0x5ea1 ~faults:hot ~spec:small_spec ()
  in
  let r, faults =
    Fault.with_counting (fun () ->
      Runner_sim.run_named ~tracker_name:"EBR" ~ds_name:"hashmap" cfg)
  in
  let r = Option.get r in
  Alcotest.(check int) "no memory faults under neutralization" 0 faults;
  Alcotest.(check bool)
    (Printf.sprintf "stalled workers were signalled (%d)"
       (Stats.metric r "neutralizations"))
    true
    (Stats.metric r "neutralizations" > 0);
  Alcotest.(check int) "zero ejections: nobody is written off" 0
    (Stats.metric r "ejections")

(* ---- the stall+neutralize campaign: checks hold, bit-reproducible ---- *)

let focused_campaign () =
  Campaign.robust_rows
    (Campaign.robust_points ~trackers:[ "EBR"; "DEBRA" ]
       ~profiles:[ "stall-storm"; "stall+neutralize" ] ())

let test_campaign_checks_hold () =
  let rows = focused_campaign () in
  let checks = Campaign.robustness_checks rows in
  Alcotest.(check bool) "campaign produced the neutralize claims" true
    (List.length checks >= 4);
  List.iter
    (fun (c : Campaign.claim) ->
       Alcotest.(check bool)
         (Printf.sprintf "%s (%s)" c.claim c.detail)
         true c.holds)
    checks

let test_campaign_reproducible () =
  let csv rows = List.map Stats.to_csv_row rows in
  let a = csv (focused_campaign ()) in
  let b = csv (focused_campaign ()) in
  Alcotest.(check (list string)) "campaign rows bit-identical on rerun" a b

(* ---- service leg: neutralization keeps the worker (smoke) ---- *)

let test_service_neutralize_smoke () =
  let p =
    Campaign.point
      ~driver:(Service { watchdog = Some (500, 2); neutralize = true })
      ~cores:4 ~seed:0x5e12 ~threads:3 ~horizon:60_000 "DEBRA+" "hashmap"
  in
  let r = Option.get (Campaign.run p) in
  Alcotest.(check bool) "requests served" true (r.ops > 0);
  Alcotest.(check int) "healing watchdog ejects nobody" 0
    (Stats.metric r "ejections");
  let r' = Option.get (Campaign.run p) in
  Alcotest.(check string) "service CSV row deterministic"
    (Stats.to_csv_row r) (Stats.to_csv_row r')

(* ---- the resizable hashmap's insert under a restart ---- *)

(* A restart signal raised by the insert's own linking CAS lands at the
   first open guard-path poll after it.  That poll belongs to the
   load-factor growth the insert triggers, which must repeat on its
   own: restarting the insert would find its own key and report the
   insert of an absent key as [false].  One native domain, with a
   rail handler like the domains backend's. *)
let test_rhashmap_insert_survives_growth_restart () =
  let armed = ref false and rail = Atomic.make false in
  let module Railed = struct
    include Ebr

    let cas h p ~expected ?tag b =
      let ok = Ebr.cas h p ~expected ?tag b in
      if ok && !armed then begin
        armed := false;
        Atomic.set rail true
      end;
      ok
  end in
  let module RH = Ibr_ds.Resizable_hashmap.Make (Railed) in
  let win = ref false and delivered = ref 0 in
  let handler =
    { Hooks.default with
      restart_window =
        (fun open_ ->
          let prev = !win in
          win := open_;
          prev);
      poll_neutralize =
        (fun () ->
          if !win && Atomic.get rail then begin
            Atomic.set rail false;
            incr delivered;
            raise Hooks.Neutralized
          end) }
  in
  Hooks.with_handler handler (fun () ->
    let t =
      RH.create_sized ~lg:1 ~threads:1
        (Tracker_intf.default_config ~threads:1 ())
    in
    let m = Option.get RH.map and bulk = Option.get RH.bulk in
    let h = RH.register t ~tid:0 in
    for key = 0 to 7 do
      ignore (m.insert h ~key ~value:key)
    done;
    Alcotest.(check int) "eight keys fit two buckets" 2 (bulk.table_length t);
    armed := true;
    Alcotest.(check bool) "the absent key 8 is inserted" true
      (m.insert h ~key:8 ~value:8);
    Alcotest.(check int) "one restart delivered" 1 !delivered;
    Alcotest.(check (option int)) "key 8 is present" (Some 8)
      (m.get h ~key:8);
    Alcotest.(check int) "the growth ran" 4 (bulk.table_length t))

let suite =
  [
    Alcotest.test_case "signal delivered only in an open window" `Quick
      test_delivery_requires_open_window;
    Alcotest.test_case "committed bracket defers delivery" `Quick
      test_committed_masks_delivery;
    Alcotest.test_case "watchdog heals and counts recovery" `Quick
      test_watchdog_heals_and_counts_recovery;
    Alcotest.test_case "watchdog re-delivers after a fresh grace" `Quick
      test_watchdog_redelivers_after_grace;
    Alcotest.test_case "ejected slot re-armed on progress" `Quick
      test_watchdog_rearms_ejected_slot;
    QCheck_alcotest.to_alcotest qcheck_restart_idempotent;
    Alcotest.test_case "handoff pushed = drained across restarts" `Quick
      test_handoff_balanced_after_neutralization;
    Alcotest.test_case "stall+neutralize is seed-deterministic" `Quick
      test_stall_neutralize_deterministic;
    Alcotest.test_case "stall+neutralize delivers signals, ejects none"
      `Quick test_stall_neutralize_signals_flow;
    Alcotest.test_case "campaign acceptance checks hold" `Quick
      test_campaign_checks_hold;
    Alcotest.test_case "campaign rows bit-reproducible" `Quick
      test_campaign_reproducible;
    Alcotest.test_case "service neutralize leg (smoke)" `Quick
      test_service_neutralize_smoke;
    Alcotest.test_case "rhashmap insert survives a growth restart" `Quick
      test_rhashmap_insert_survives_growth_restart;
  ]
