(* The background-reclamation service end to end (DESIGN.md §9):
   the handoff service's drain/flush/pending contract through the
   public TRACKER API, and shutdown quiescence on both runner
   backends — after a run with [background_reclaim] on, every pushed
   block has been drained (the queues are empty) and the allocator's
   books balance, including under a crash fault that abandons the
   drain lock mid-run. *)

open Ibr_core
open Ibr_harness

let bg_cfg ~threads =
  { (Tracker_intf.default_config ~threads ()) with
    Tracker_intf.background_reclaim = true }

(* ---- the service contract, single-threaded ---- *)

let test_service_drain_flush () =
  let module T = (val (Registry.find_exn "EBR").tracker
                   : Tracker_intf.TRACKER)
  in
  Handoff.Stats.reset ();
  let t = T.create ~threads:1 (bg_cfg ~threads:1) in
  let h = T.register t ~tid:0 in
  let svc =
    match T.reclaim_service t with
    | Some svc -> svc
    | None -> Alcotest.fail "background_reclaim on, but no service"
  in
  let n = 10 in
  T.start_op h;
  for i = 1 to n do
    let b = T.alloc h i in
    T.retire h b
  done;
  T.end_op h;
  (* Retires were queue appends: nothing reclaimed yet, all pending. *)
  Alcotest.(check int) "all retires pending" n (svc.Handoff.pending ());
  Alcotest.(check int) "nothing freed before drain" 0
    (Alloc.stats (T.allocator t)).Alloc.freed;
  (* Drain moves every queued block into the service reclaimer; they
     stay pending (held, not yet swept). *)
  Alcotest.(check int) "drain moves the batch" n (svc.Handoff.drain ());
  Alcotest.(check int) "drained blocks still held" n
    (svc.Handoff.pending ());
  Alcotest.(check int) "second drain finds nothing" 0
    (svc.Handoff.drain ());
  (* Flush sweeps; no reservation is live, so everything frees. *)
  svc.Handoff.flush ();
  Alcotest.(check int) "flush empties the service" 0
    (svc.Handoff.pending ());
  Alcotest.(check int) "every block freed" n
    (Alloc.stats (T.allocator t)).Alloc.freed;
  Alcotest.(check int) "telemetry: pushed" n
    (Atomic.get Handoff.Stats.pushed);
  Alcotest.(check int) "telemetry: drained" n
    (Atomic.get Handoff.Stats.drained)

let test_no_service_when_off () =
  let check name cfg expect =
    let module T = (val (Registry.find_exn name).tracker
                     : Tracker_intf.TRACKER)
    in
    let t = T.create ~threads:1 cfg in
    Alcotest.(check bool)
      (Printf.sprintf "%s service present" name)
      expect
      (Option.is_some (T.reclaim_service t))
  in
  (* Off by default; on with the flag; never for the schemes that do
     not sweep. *)
  check "EBR" (Tracker_intf.default_config ~threads:1 ()) false;
  check "HP" (bg_cfg ~threads:1) true;
  check "NoMM" (bg_cfg ~threads:1) false;
  check "UnsafeFree" (bg_cfg ~threads:1) false

(* [queued] reads per-queue counts instead of walking the queues.
   Across any interleaving of pushes from several producers and drains
   it is the pushes minus what the drains moved, and a queued retire
   path counts it plus what the service's reclaimer holds (a store
   that is never swept here). *)
let qcheck_queued_counts =
  QCheck.Test.make ~name:"queued = pushed - drained; path_count adds the store"
    ~count:200
    QCheck.(list (option (int_bound 3)))
    (fun script ->
       let rc =
         Reclaimer.create ~empty_freq:0
           ~source:(fun () -> { Reclaimer.below = min_int; keep = None })
           ~free:ignore ()
       in
       let h = Handoff.create ~producers:4 rc in
       let pushed = ref 0 and drained = ref 0 in
       List.for_all
         (fun step ->
            (match step with
             | Some tid ->
               let b = Block.make ~id:!pushed 0 in
               Block.set_retire_epoch b !pushed;
               Handoff.push h ~tid b;
               incr pushed
             | None -> drained := !drained + Handoff.drain h);
            Handoff.queued h = !pushed - !drained
            && Reclaimer.count rc = !drained
            && Handoff.path_count (Queued h)
               = Handoff.queued h + Reclaimer.count rc)
         script)

(* ---- shutdown quiescence through the runners ---- *)

let small_spec = { (Workload.spec_for "hashmap") with key_range = 256 }

let quiescent (r : Stats.t) =
  let m = Stats.metric r in
  Alcotest.(check bool) "retires were handed off" true
    (m "handoff_pushed" > 0);
  Alcotest.(check int) "every push drained by shutdown"
    (m "handoff_pushed") (m "handoff_drained");
  Alcotest.(check int) "books balance" (m "live")
    (m "allocated" - m "freed")

let sim_run ~tracker ~faults ~seed =
  let cfg =
    Runner_sim.default_config ~threads:4 ~cores:4 ~horizon:20_000 ~seed
      ~faults ~spec:small_spec ()
  in
  let cfg =
    { cfg with
      Runner_sim.tracker_cfg =
        { cfg.Runner_sim.tracker_cfg with
          Tracker_intf.background_reclaim = true } }
  in
  Option.get (Runner_sim.run_named ~tracker_name:tracker ~ds_name:"hashmap" cfg)

let test_sim_quiescence () =
  List.iter
    (fun tracker ->
       quiescent (sim_run ~tracker ~faults:Runner_intf.No_faults ~seed:0xb6))
    [ "EBR"; "HP"; "2GEIBR" ]

(* A crash can abandon a fiber inside the drain lock; the post-run
   [shutdown_flush] seizes it, so quiescence must hold regardless of
   where the crash landed. *)
let test_sim_quiescence_under_crash () =
  let faults = Runner_intf.Crash { crash_prob = 0.25; max_crashes = 1 } in
  let r, _ =
    Ibr_core.Fault.with_counting (fun () ->
      sim_run ~tracker:"EBR" ~faults ~seed:0xc0)
  in
  Alcotest.(check int) "a thread crashed" 1 (Stats.metric r "crashes");
  quiescent r

let test_domains_quiescence () =
  quiescent
    (Option.get
       (Campaign.run
          (Campaign.point ~backend:Domains ~seed:0xd0e5
             ~tweak:(fun c -> { c with Tracker_intf.background_reclaim = true })
             ~threads:2 ~horizon:50_000 "EBR" "hashmap")))

(* Virtual time must not move when the feature is off: same seed, same
   makespan and op count as ever (the golden CSV pins the full row;
   this pins the off-by-default contract from inside the suite). *)
let test_off_by_default_is_inert () =
  let base =
    Runner_sim.default_config ~threads:4 ~cores:4 ~horizon:20_000 ~seed:0xb6
      ~spec:small_spec ()
  in
  let off =
    Option.get (Runner_sim.run_named ~tracker_name:"EBR" ~ds_name:"hashmap" base)
  in
  Alcotest.(check int) "no handoff traffic when off" 0
    (Stats.metric off "handoff_pushed");
  let again =
    Option.get (Runner_sim.run_named ~tracker_name:"EBR" ~ds_name:"hashmap" base)
  in
  Alcotest.(check int) "deterministic ops" off.Stats.ops again.Stats.ops;
  Alcotest.(check int) "deterministic makespan" off.Stats.makespan
    again.Stats.makespan

let suite =
  [
    Alcotest.test_case "service drain/flush/pending contract" `Quick
      test_service_drain_flush;
    Alcotest.test_case "service only exists when configured" `Quick
      test_no_service_when_off;
    QCheck_alcotest.to_alcotest qcheck_queued_counts;
    Alcotest.test_case "sim shutdown quiescence (EBR/HP/2GEIBR)" `Quick
      test_sim_quiescence;
    Alcotest.test_case "sim quiescence with a crashed thread" `Quick
      test_sim_quiescence_under_crash;
    Alcotest.test_case "domains shutdown quiescence" `Quick
      test_domains_quiescence;
    Alcotest.test_case "off by default: no handoff, deterministic" `Quick
      test_off_by_default_is_inert;
  ]
