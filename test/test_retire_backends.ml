(* Differential and unit tests for the retirement store.

   The reference is the flat list the store replaced: every retired
   block in one list, and a sweep that judges each of them with
   [Reclaimer.survives] under the test the store's sweep just built
   and frees exactly the ones it rejects.  After every sweep of every
   script the bucket store must have freed the same set and hold the
   same count.  The threshold scripts exercise the wholesale bucket
   splits; the interval scripts retire out of order, so they also
   reach the bucket splice a monotone epoch never does. *)

open Ibr_core

let mk_block id ~birth ~retire =
  let b = Block.make ~id 0 in
  Block.set_birth_epoch b birth;
  Block.transition_retire b;
  Block.set_retire_epoch b retire;
  b

(* The store under test, with the conflict test of its last sweep, next
   to the reference list.  Frees on either side record block ids. *)
type harness = {
  rc : int Reclaimer.t;
  freed : (int, unit) Hashtbl.t;
  last : int Reclaimer.test option ref;
  mutable held : int Block.t list;  (* the reference list *)
  ref_freed : (int, unit) Hashtbl.t;
}

let make_harness build =
  let freed = Hashtbl.create 64 and last = ref None in
  let rc =
    Reclaimer.create ~empty_freq:0
      ~source:(fun () ->
        let test = build () in
        last := Some test;
        test)
      ~free:(fun b -> Hashtbl.replace freed (Block.id b) ())
      ()
  in
  { rc; freed; last; held = []; ref_freed = Hashtbl.create 64 }

let ids tbl =
  Hashtbl.fold (fun id () acc -> id :: acc) tbl [] |> List.sort Int.compare

let freed_set h = ids h.freed

let retire h b =
  Reclaimer.add h.rc b;
  h.held <- b :: h.held

(* Sweep the store (or force it), then judge every block the reference
   still holds by the test it built. *)
let sweep ?(force = false) h =
  h.last := None;
  if force then Reclaimer.force h.rc else Reclaimer.sweep h.rc;
  let test =
    match !(h.last) with
    | Some test -> test
    | None -> Alcotest.fail "a sweep built no conflict test"
  in
  let kept, doomed = List.partition (Reclaimer.survives test) h.held in
  h.held <- kept;
  List.iter (fun b -> Hashtbl.replace h.ref_freed (Block.id b) ()) doomed

let agrees h =
  ids h.freed = ids h.ref_freed
  && Reclaimer.count h.rc = List.length h.held
  && Reclaimer.total_reclaimed h.rc = Hashtbl.length h.ref_freed

(* ---- threshold scripts --------------------------------------------- *)

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
  let h =
    make_harness (fun () -> { Reclaimer.below = !threshold; keep = None })
  in
  let ok = ref true in
  List.iter
    (fun ev ->
       (match ev with
        | Retire ->
          let id = !next_id in
          incr next_id;
          retire h (mk_block id ~birth:!epoch ~retire:!epoch)
        | Advance -> incr epoch
        | Raise d -> threshold := !threshold + d
        | Sweep -> sweep h);
       if not (agrees h) then ok := false)
    evs;
  (* Drain: threshold past every retire epoch, then force. *)
  threshold := !epoch + 1;
  sweep ~force:true h;
  !ok && agrees h && Reclaimer.count h.rc = 0
  && List.length (freed_set h) = !next_id

let qcheck_threshold_backends =
  QCheck.Test.make
    ~name:"backends free identical sets (threshold scripts, final force)"
    ~count:500
    (QCheck.make ~print:print_th_script th_script_gen)
    run_threshold_script

(* ---- interval scripts ---------------------------------------------- *)

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
  let h =
    make_harness (fun () -> Reclaimer.intervals (snapshot ()))
  in
  let ok = ref true in
  List.iter
    (fun ev ->
       (match ev with
        | IRetire (birth, len) ->
          let id = !next_id in
          incr next_id;
          (* Out-of-order retire epochs on purpose: they exercise the
             bucket splice path a monotone epoch never reaches. *)
          retire h (mk_block id ~birth ~retire:(birth + len))
        | ISlots s -> slots := s
        | ISweep -> sweep h);
       if not (agrees h) then ok := false)
    evs;
  slots := [];
  sweep ~force:true h;
  !ok && agrees h && Reclaimer.count h.rc = 0

let qcheck_interval_backends =
  QCheck.Test.make
    ~name:"List = Buckets step-by-step (interval scripts)"
    ~count:500
    (QCheck.make ~print:print_iv_script iv_script_gen)
    run_interval_script

(* ---- bucket mechanics ---------------------------------------------- *)

(* The registry's value of each counter after [f ()], counted from
   just before it, as a run reads them. *)
let counted f =
  let baseline = Ibr_obs.Metrics.begin_run () in
  f ();
  Ibr_obs.Metrics.get (Ibr_obs.Metrics.collect baseline)

let test_threshold_examines_no_blocks () =
  let threshold = ref 0 in
  let freed = Hashtbl.create 16 in
  let rc =
    Reclaimer.create ~empty_freq:0
      ~source:(fun () -> { Reclaimer.below = !threshold; keep = None })
      ~free:(fun b -> Hashtbl.replace freed (Block.id b) ())
      ()
  in
  for i = 0 to 29 do
    Reclaimer.add rc (mk_block i ~birth:(i / 3) ~retire:(i / 3))
  done;
  Alcotest.(check int) "one bucket per distinct epoch" 10
    (Reclaimer.bucket_count rc);
  threshold := 5;
  let d = counted (fun () -> Reclaimer.sweep rc) in
  (* Epochs 0..4 free wholesale (15 blocks), 5..9 kept wholesale: the
     threshold sweep never conflict-tests an individual block. *)
  Alcotest.(check int) "threshold sweep examines zero blocks" 0
    (d "sweep_examined");
  Alcotest.(check int) "freed the old buckets wholesale" 15 (d "sweep_freed");
  Alcotest.(check int) "bucket occupancy recorded" 10 (d "sweep_buckets");
  Alcotest.(check int) "kept buckets" 5 (Reclaimer.bucket_count rc);
  Alcotest.(check int) "kept blocks" 15 (Reclaimer.count rc)

let test_empty_freq_cadence () =
  let threshold = ref 100 in
  let freed = Hashtbl.create 16 in
  let rc =
    Reclaimer.create ~empty_freq:3
      ~source:(fun () -> { Reclaimer.below = !threshold; keep = None })
      ~free:(fun b -> Hashtbl.replace freed (Block.id b) ())
      ()
  in
  let d =
    counted (fun () ->
      for i = 0 to 8 do
        Reclaimer.add rc (mk_block i ~birth:1 ~retire:1)
      done)
  in
  Alcotest.(check int) "a sweep every empty_freq retires" 3 (d "sweeps");
  Alcotest.(check int) "everything below threshold freed" 9
    (Hashtbl.length freed)

(* A sweep unwound inside its walk (a horizon stop or a crash at a
   block's charge) must leave the store as it was: the newest bucket
   loses one block to the test before the next bucket's first test
   raises. *)
let test_unwound_sweep_keeps_store () =
  let calls = ref 0 and freed = ref 0 in
  let rc =
    Reclaimer.create ~empty_freq:0
      ~source:(fun () ->
        { Reclaimer.below = min_int;
          keep =
            Some
              (fun _ ->
                 incr calls;
                 if !calls = 4 then raise Exit;
                 !calls <> 2) })
      ~free:(fun _ -> incr freed)
      ()
  in
  List.iteri
    (fun id e -> Reclaimer.add rc (mk_block id ~birth:e ~retire:e))
    [ 1; 1; 2; 2; 2 ];
  (try Reclaimer.force rc with Exit -> ());
  Alcotest.(check int) "nothing freed" 0 !freed;
  Alcotest.(check int) "count unchanged" 5 (Reclaimer.count rc);
  let held = ref 0 in
  Reclaimer.drain_all rc (fun _ -> incr held);
  Alcotest.(check int) "every block still stored" 5 !held

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_threshold_backends;
    QCheck_alcotest.to_alcotest qcheck_interval_backends;
    Alcotest.test_case "threshold sweep examines no blocks" `Quick
      test_threshold_examines_no_blocks;
    Alcotest.test_case "empty_freq cadence" `Quick test_empty_freq_cadence;
    Alcotest.test_case "an unwound sweep keeps the store" `Quick
      test_unwound_sweep_keeps_store;
  ]
