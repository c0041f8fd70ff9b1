(* Differential and unit tests for the retirement backends.

   The three backends must agree on *what* is freed, differing only in
   cost and timing: List and Buckets free identical block sets after
   every single sweep (step equality, arbitrary conflict scripts);
   Gated may defer frees while its gate is closed but must converge to
   the same set — checked here with monotone threshold scripts, where
   the ever-freed set is determined by the final threshold alone, plus
   a closing [force] on all three. *)

open Ibr_core

let mk_block id ~birth ~retire =
  let b = Block.make ~id 0 in
  Block.set_birth_epoch b birth;
  Block.transition_retire b;
  Block.set_retire_epoch b retire;
  b

(* One backend instance driven by a shared script: the conflict source
   reads mutable refs the script updates, frees record block ids. *)
type harness = {
  rc : int Reclaimer.t;
  freed : (int, unit) Hashtbl.t;
}

let freed_set h =
  Hashtbl.fold (fun id () acc -> id :: acc) h.freed []
  |> List.sort Int.compare

(* ---- threshold scripts: all three backends converge ---------------- *)

type th_event = Retire | Advance | Raise of int | Sweep

let th_event_gen =
  QCheck.Gen.(
    frequency
      [ (4, return Retire); (2, return Advance);
        (2, map (fun d -> Raise d) (int_range 1 3)); (3, return Sweep) ])

let th_script_gen = QCheck.Gen.(list_size (int_range 1 60) th_event_gen)

let print_th_script evs =
  String.concat ";"
    (List.map
       (function
         | Retire -> "ret"
         | Advance -> "adv"
         | Raise d -> Printf.sprintf "thr+%d" d
         | Sweep -> "swp")
       evs)

let run_threshold_script evs =
  let epoch = ref 1 and threshold = ref 0 and next_id = ref 0 in
  let make backend =
    let freed = Hashtbl.create 64 in
    let rc =
      Reclaimer.create ~backend ~empty_freq:0
        ~current_epoch:(fun () -> !epoch)
        ~source:(fun () ->
          Reclaimer.Shape (Tracker_common.Conflict.Threshold !threshold))
        ~free:(fun b -> Hashtbl.replace freed (Block.id b) ())
        ()
    in
    { rc; freed }
  in
  let list = make Reclaimer.List
  and buckets = make Reclaimer.Buckets
  and gated = make Reclaimer.Gated in
  let all = [ list; buckets; gated ] in
  let step_equal = ref true in
  List.iter
    (fun ev ->
       (match ev with
        | Retire ->
          let id = !next_id in
          incr next_id;
          List.iter
            (fun h ->
               Reclaimer.add h.rc (mk_block id ~birth:!epoch ~retire:!epoch))
            all
        | Advance -> incr epoch
        | Raise d -> threshold := !threshold + d
        | Sweep -> List.iter (fun h -> Reclaimer.sweep h.rc) all);
       (* List and Buckets are step-equal; Gated only lags. *)
       if freed_set list <> freed_set buckets then step_equal := false;
       if
         not
           (List.for_all
              (fun id -> Hashtbl.mem list.freed id)
              (freed_set gated))
       then step_equal := false)
    evs;
  (* Converge: threshold past every retire epoch, then force. *)
  threshold := !epoch + 1;
  List.iter (fun h -> Reclaimer.force h.rc) all;
  !step_equal
  && freed_set list = freed_set buckets
  && freed_set list = freed_set gated
  && Reclaimer.total_reclaimed list.rc = Reclaimer.total_reclaimed buckets.rc
  && Reclaimer.total_reclaimed list.rc = Reclaimer.total_reclaimed gated.rc
  && Reclaimer.count list.rc = 0
  && Reclaimer.count buckets.rc = 0
  && Reclaimer.count gated.rc = 0

let qcheck_threshold_backends =
  QCheck.Test.make
    ~name:"backends free identical sets (threshold scripts, final force)"
    ~count:500
    (QCheck.make ~print:print_th_script th_script_gen)
    run_threshold_script

(* ---- interval scripts: List vs Buckets are step-equal -------------- *)

type iv_event =
  | IRetire of int * int        (* birth, length *)
  | ISlots of (int * int) list  (* reserved intervals *)
  | ISweep

let iv_event_gen =
  QCheck.Gen.(
    frequency
      [ (4,
         map2 (fun b l -> IRetire (b, l)) (int_bound 50) (int_bound 10));
        (2,
         map
           (fun l -> ISlots l)
           (list_size (int_bound 6)
              (map2 (fun lo len -> (lo, lo + len)) (int_bound 50)
                 (int_bound 12))));
        (3, return ISweep) ])

let iv_script_gen = QCheck.Gen.(list_size (int_range 1 60) iv_event_gen)

let print_iv_script evs =
  String.concat ";"
    (List.map
       (function
         | IRetire (b, l) -> Printf.sprintf "ret(%d,%d)" b (b + l)
         | ISlots s ->
           Printf.sprintf "slots[%s]"
             (String.concat ","
                (List.map (fun (lo, hi) -> Printf.sprintf "%d-%d" lo hi) s))
         | ISweep -> "swp")
       evs)

let run_interval_script evs =
  let slots = ref [] and next_id = ref 0 in
  let snapshot () =
    let res = Tracker_common.Interval_res.create (List.length !slots) in
    List.iteri
      (fun tid (lo, hi) ->
         Atomic.set res.Tracker_common.Interval_res.lower.(tid) lo;
         Atomic.set res.Tracker_common.Interval_res.upper.(tid) hi)
      !slots;
    Tracker_common.Interval_res.sweep_snapshot res
  in
  let make backend =
    let freed = Hashtbl.create 64 in
    let rc =
      Reclaimer.create ~backend ~empty_freq:0
        ~current_epoch:(fun () -> 0)
        ~source:(fun () ->
          Reclaimer.Shape (Tracker_common.Conflict.Intervals (snapshot ())))
        ~free:(fun b -> Hashtbl.replace freed (Block.id b) ())
        ()
    in
    { rc; freed }
  in
  let list = make Reclaimer.List and buckets = make Reclaimer.Buckets in
  let ok = ref true in
  List.iter
    (fun ev ->
       (match ev with
        | IRetire (birth, len) ->
          let id = !next_id in
          incr next_id;
          (* Out-of-order retire epochs on purpose: they exercise the
             bucket splice path a monotone epoch never reaches. *)
          List.iter
            (fun h ->
               Reclaimer.add h.rc (mk_block id ~birth ~retire:(birth + len)))
            [ list; buckets ]
        | ISlots s -> slots := s
        | ISweep ->
          List.iter (fun h -> Reclaimer.sweep h.rc) [ list; buckets ]);
       if freed_set list <> freed_set buckets then ok := false;
       if Reclaimer.count list.rc <> Reclaimer.count buckets.rc then
         ok := false)
    evs;
  slots := [];
  List.iter (fun h -> Reclaimer.force h.rc) [ list; buckets ];
  !ok
  && freed_set list = freed_set buckets
  && Reclaimer.count list.rc = 0
  && Reclaimer.count buckets.rc = 0

let qcheck_interval_backends =
  QCheck.Test.make
    ~name:"List = Buckets step-by-step (interval scripts)"
    ~count:500
    (QCheck.make ~print:print_iv_script iv_script_gen)
    run_interval_script

(* ---- gating semantics ---------------------------------------------- *)

let gated_harness ?(prepare = fun () -> ()) ~epoch ~threshold () =
  let freed = Hashtbl.create 16 in
  let rc =
    Reclaimer.create ~backend:Reclaimer.Gated ~empty_freq:0 ~prepare
      ~current_epoch:(fun () -> !epoch)
      ~source:(fun () ->
        Reclaimer.Shape (Tracker_common.Conflict.Threshold !threshold))
      ~free:(fun b -> Hashtbl.replace freed (Block.id b) ())
      ()
  in
  { rc; freed }

let test_gate_arms_and_skips () =
  let epoch = ref 5 and threshold = ref 0 in
  let h = gated_harness ~epoch ~threshold () in
  Reclaimer.add h.rc (mk_block 0 ~birth:5 ~retire:5);
  let before = Tracker_common.Sweep_stats.snap () in
  Reclaimer.sweep h.rc;
  Alcotest.(check bool) "zero-free sweep arms the gate" true
    (Reclaimer.gate h.rc <> None);
  Reclaimer.sweep h.rc;
  Reclaimer.sweep h.rc;
  let d =
    Tracker_common.Sweep_stats.diff before (Tracker_common.Sweep_stats.snap ())
  in
  Alcotest.(check int) "only the first sweep ran" 1 d.sweeps;
  Alcotest.(check int) "two skips while gated" 2 d.skipped;
  (* Epoch movement reopens the gate. *)
  incr epoch;
  threshold := 10;
  Reclaimer.sweep h.rc;
  Alcotest.(check (list int)) "reopened sweep frees" [ 0 ] (freed_set h);
  Alcotest.(check bool) "gate open after freeing sweep" true
    (Reclaimer.gate h.rc = None)

let test_force_bypasses_gate () =
  let epoch = ref 3 and threshold = ref 0 in
  let h = gated_harness ~epoch ~threshold () in
  Reclaimer.add h.rc (mk_block 1 ~birth:3 ~retire:3);
  Reclaimer.sweep h.rc;
  Alcotest.(check bool) "gate armed" true (Reclaimer.gate h.rc <> None);
  threshold := 99;
  Reclaimer.force h.rc;
  Alcotest.(check (list int)) "force frees through the gate" [ 1 ]
    (freed_set h)

let test_prepare_runs_while_gated () =
  (* QSBR/Fraser shape: the epoch only moves through [prepare].  If the
     gate suppressed it, the gate would wait on an epoch that can no
     longer advance. *)
  let epoch = ref 1 and threshold = ref 0 in
  let preps = ref 0 in
  let h =
    gated_harness
      ~prepare:(fun () ->
        incr preps;
        if !preps >= 3 then begin
          epoch := 2;
          threshold := 10
        end)
      ~epoch ~threshold ()
  in
  Reclaimer.add h.rc (mk_block 2 ~birth:1 ~retire:1);
  Reclaimer.sweep h.rc;   (* arms the gate *)
  Reclaimer.sweep h.rc;   (* gated, but prepare still runs *)
  Reclaimer.sweep h.rc;   (* prepare moves the epoch: gate opens *)
  Alcotest.(check int) "prepare ran on every attempt" 3 !preps;
  Alcotest.(check (list int)) "freed once the epoch moved" [ 2 ]
    (freed_set h)

let test_epochless_never_gates () =
  let epoch = ref 0 and threshold = ref 0 in
  let h = gated_harness ~epoch ~threshold () in
  Reclaimer.add h.rc (mk_block 3 ~birth:1 ~retire:1);
  Reclaimer.sweep h.rc;
  Alcotest.(check bool) "current_epoch = 0 disables gating" true
    (Reclaimer.gate h.rc = None)

(* ---- bucket mechanics ---------------------------------------------- *)

let test_threshold_examines_no_blocks () =
  let epoch = ref 1 and threshold = ref 0 in
  let freed = Hashtbl.create 16 in
  let rc =
    Reclaimer.create ~backend:Reclaimer.Buckets ~empty_freq:0
      ~current_epoch:(fun () -> !epoch)
      ~source:(fun () ->
        Reclaimer.Shape (Tracker_common.Conflict.Threshold !threshold))
      ~free:(fun b -> Hashtbl.replace freed (Block.id b) ())
      ()
  in
  for i = 0 to 29 do
    Reclaimer.add rc (mk_block i ~birth:(i / 3) ~retire:(i / 3))
  done;
  Alcotest.(check int) "one bucket per distinct epoch" 10
    (Reclaimer.bucket_count rc);
  threshold := 5;
  let before = Tracker_common.Sweep_stats.snap () in
  Reclaimer.sweep rc;
  let d =
    Tracker_common.Sweep_stats.diff before (Tracker_common.Sweep_stats.snap ())
  in
  (* Epochs 0..4 free wholesale (15 blocks), 5..9 kept wholesale: the
     threshold sweep never conflict-tests an individual block. *)
  Alcotest.(check int) "threshold sweep examines zero blocks" 0 d.examined;
  Alcotest.(check int) "freed the old buckets wholesale" 15 d.freed;
  Alcotest.(check int) "bucket occupancy recorded" 10 d.buckets;
  Alcotest.(check int) "kept buckets" 5 (Reclaimer.bucket_count rc);
  Alcotest.(check int) "kept blocks" 15 (Reclaimer.count rc)

let test_empty_freq_cadence () =
  let epoch = ref 1 and threshold = ref 100 in
  let freed = Hashtbl.create 16 in
  let sweeps_before = (Tracker_common.Sweep_stats.snap ()).sweeps in
  let rc =
    Reclaimer.create ~backend:Reclaimer.Buckets ~empty_freq:3
      ~current_epoch:(fun () -> !epoch)
      ~source:(fun () ->
        Reclaimer.Shape (Tracker_common.Conflict.Threshold !threshold))
      ~free:(fun b -> Hashtbl.replace freed (Block.id b) ())
      ()
  in
  for i = 0 to 8 do
    Reclaimer.add rc (mk_block i ~birth:1 ~retire:1)
  done;
  let sweeps_after = (Tracker_common.Sweep_stats.snap ()).sweeps in
  Alcotest.(check int) "a sweep every empty_freq retires" 3
    (sweeps_after - sweeps_before);
  Alcotest.(check int) "everything below threshold freed" 9
    (Hashtbl.length freed)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_threshold_backends;
    QCheck_alcotest.to_alcotest qcheck_interval_backends;
    Alcotest.test_case "gate arms and skips" `Quick test_gate_arms_and_skips;
    Alcotest.test_case "force bypasses gate" `Quick test_force_bypasses_gate;
    Alcotest.test_case "prepare runs while gated" `Quick
      test_prepare_runs_while_gated;
    Alcotest.test_case "epoch-less schemes never gate" `Quick
      test_epochless_never_gates;
    Alcotest.test_case "threshold sweep examines no blocks" `Quick
      test_threshold_examines_no_blocks;
    Alcotest.test_case "empty_freq cadence" `Quick test_empty_freq_cadence;
  ]
